(* Host-speed calibration.  On a shared host, other tenants can slow
   every instruction for whole runs at a time (measured here: the same
   work ran up to 1.8x slower for minutes), which no statistic over one
   run's repetitions can filter out.  Fixed kernels, timed between
   repetitions, track that slow-down in code the library cannot
   change.  Contention does not slow all work alike, so there are two
   kernels:

   - [compute] does the kinds of work the simulator does in cache:
     short-lived allocation, hash-table updates and an effect handler
     resumed per step;
   - [memory] chases pointers through a 16 MB random cycle kept outside
     the OCaml heap, so it waits on the last-level cache and DRAM the
     way graph recording, image construction and the litmus
     enumerations do once their working sets outgrow the private
     caches.

   Both kernels run before and after every timed repetition, and the
   repetition's times are scaled by [reference_s] over the geometric
   mean of those four timings: they are seconds of a host on which the
   kernels' geometric mean is [reference_s].  The host's speed drifts
   within a run as well as between runs, so a repetition is scaled by
   the kernels timed right around it, not by the run's fastest. *)

type _ Effect.t += Step : int -> int Effect.t

let tables () =
  let h = Hashtbl.create 1024 in
  let l = ref [] in
  for i = 1 to 50_000 do
    Hashtbl.replace h (i land 4095) i;
    l := (i, i) :: !l;
    if i land 8191 = 0 then l := []
  done;
  ignore (Sys.opaque_identity (h, !l))

let effects () =
  let h = Hashtbl.create 1024 in
  let body () =
    for i = 1 to 20_000 do
      let v = Effect.perform (Step i) in
      Hashtbl.replace h (v land 4095) (i, v)
    done
  in
  Effect.Deep.match_with body ()
    { retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Step i ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                Effect.Deep.continue k (i * 7))
          | _ -> None) };
  ignore (Sys.opaque_identity h)

let compute () =
  tables ();
  effects ()

(* One cycle through all 2^21 slots (Sattolo's shuffle), so every step
   is a dependent load from an unpredictable line. *)
let cycle =
  lazy
    (let n = 1 lsl 21 in
     let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
     for i = 0 to n - 1 do
       a.{i} <- i
     done;
     let st = Random.State.make [| 7 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int st i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

let memory () =
  let a = Lazy.force cycle in
  let p = ref 0 in
  for _ = 1 to 60_000 do
    p := a.{!p}
  done;
  ignore (Sys.opaque_identity !p)

(* The unit of scaled times; it never changes. *)
let reference_s = 0.005

let fastest n f =
  List.fold_left Float.min infinity (List.init n (fun _ -> snd (Rep.timed f)))

(* The host's speed now: the geometric mean of each kernel's fastest of
   8 timings, on a freshly collected heap so that the GC does not
   charge the previous repetition's garbage to them.  About 0.1 s. *)
let sample () =
  ignore (Lazy.force cycle);
  Gc.compact ();
  sqrt (fastest 8 compute *. fastest 8 memory)

(* The factor for work timed between two samples. *)
let scale ~before ~after = reference_s /. sqrt (before *. after)
