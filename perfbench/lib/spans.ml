(* In-memory span recorder for traced runs.  Spans are opened from the
   benchmark's own code around calls into one layer of the library;
   each records its parent, so a layer's self time is its duration
   minus the time its direct children cover.  Nothing is written until
   [write] at the end of the run. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  start_s : float;  (** since the recorder was created *)
  dur_s : float;
  words : float;  (** words allocated inside the span, children included *)
}

type t = {
  origin : float;
  mutable next_id : int;
  mutable open_ : int list;
  mutable spans : span list;
}

let create () =
  { origin = Unix.gettimeofday (); next_id = 0; open_ = []; spans = [] }

let with_ t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let start_s = Unix.gettimeofday () -. t.origin in
  let s = Obs.Perfscope.start () in
  Fun.protect f ~finally:(fun () ->
      let d = Obs.Perfscope.finish s in
      t.open_ <- List.tl t.open_;
      t.spans <-
        { id;
          parent;
          name;
          start_s;
          dur_s = d.Obs.Perfscope.wall_s;
          words = Obs.Perfscope.alloc_words d }
        :: t.spans)

let named t name = List.filter (fun s -> s.name = name) t.spans
let count t name = List.length (named t name)
let sum f l = List.fold_left (fun acc s -> acc +. f s) 0. l
let total_s t name = sum (fun s -> s.dur_s) (named t name)
let words t name = sum (fun s -> s.words) (named t name)

let self_s t name =
  let ids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace ids s.id ()) (named t name);
  total_s t name
  -. sum (fun s -> s.dur_s) (List.filter (fun s -> Hashtbl.mem ids s.parent) t.spans)

let to_json t =
  Obs.Json.List
    (List.rev_map
       (fun s ->
         Obs.Json.Obj
           [ ("id", Obs.Json.Int s.id);
             ("parent", Obs.Json.Int s.parent);
             ("name", Obs.Json.Str s.name);
             ("start_s", Obs.Json.Float s.start_s);
             ("dur_s", Obs.Json.Float s.dur_s);
             ("words", Obs.Json.Float s.words) ])
       t.spans)
