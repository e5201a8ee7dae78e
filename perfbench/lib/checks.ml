(* Output checking.  Every run compares what the library computed
   against values pinned in [Expected] (simulated statistics do not
   depend on host speed, so they must repeat exactly) or against a
   verdict the workload must reach.  A mismatch is counted, never
   turned into a number: [failed > 0] makes the run incorrect. *)

type stat = (string * int) list
(** Named simulated statistics of one item, e.g. [("cp", 4000)]. *)

type t = {
  expected : (string, stat) Hashtbl.t option;  (** [None] while recording *)
  mutable attempted : int;
  mutable failed : int;
  mutable observed : (string * stat) list;  (** newest first *)
}

let make expected = { expected; attempted = 0; failed = 0; observed = [] }

let create expected =
  let tbl = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) expected;
  make (Some tbl)

(* Observes statistics without judging them: how [Expected] is made. *)
let recorder () = make None

let fail t msg =
  t.failed <- t.failed + 1;
  prerr_endline ("perfbench: check failed: " ^ msg)

let verdict t label ok =
  t.attempted <- t.attempted + 1;
  if not ok then fail t label

let render stat =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) stat)

let stat t key stat =
  t.observed <- (key, stat) :: t.observed;
  Option.iter
    (fun expected ->
      t.attempted <- t.attempted + 1;
      match Hashtbl.find_opt expected key with
      | None -> fail t (key ^ ": no expected value")
      | Some e when e <> stat ->
        fail t
          (Printf.sprintf "%s: expected %s, got %s" key (render e) (render stat))
      | Some _ -> ())
    t.expected

(* Distinct observations in first-seen order: the repetitions of a run
   observe the same keys again. *)
let observed t =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun (k, _) ->
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    (List.rev t.observed)
