(* What one repetition of a workload's fixed amount of work measured,
   and how a workload is driven.  A workload's [setup] generates the
   inputs for one seed variant and warms up; the closures it returns
   do the timed work on those inputs.

   A repetition is timed as a sequence of segments that together cover
   its work.  Every repetition of a run does the same work, so the
   segment sequence is the same each time (see Runner). *)

type t = {
  segments : (string * float) list;
      (** (phase, seconds) in execution order; phase ["item"] marks one
          item: a sweep cell, a crash state or a schedule *)
  counts : (string * int * string) list;
      (** (rate name, count, phase): the rate printed beside the result
          is [count] over the time of [phase] *)
}

type instance = {
  rep : Checks.t -> t;  (** untraced: what end-to-end metrics come from *)
  traced : Checks.t -> Spans.t -> (string * float) list;
      (** the same work split at layer boundaries, each call wrapped in a
          span; returns this workload's per-layer metrics *)
}

type workload = {
  name : string;
  setup : variant:int -> instance;
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Segment recorder: [lap s phase] closes the segment that began at the
   previous lap (or at [start]). *)
type laps = {
  mutable last : float;
  mutable acc : (string * float) list;
}

let start () = { last = now (); acc = [] }

let lap s phase =
  let t = now () in
  s.acc <- (phase, t -. s.last) :: s.acc;
  s.last <- t

let segments s = List.rev s.acc

let per_ns ~seconds n = if n = 0 then nan else seconds *. 1e9 /. float_of_int n
