type t = {
  n : int;
  succ : Iset.t array;
  pred : Iset.t array;
  indeg : int array;  (** [indeg.(v) = Iset.cardinal pred.(v)] *)
}

let create ~n =
  { n;
    succ = Array.make n Iset.empty;
    pred = Array.make n Iset.empty;
    indeg = Array.make n 0 }

let node_count t = t.n

let check t v = if v < 0 || v >= t.n then invalid_arg "Dag: node out of range"

let add_edge t u v =
  check t u;
  check t v;
  if not (Iset.mem v t.succ.(u)) then begin
    t.succ.(u) <- Iset.add v t.succ.(u);
    t.pred.(v) <- Iset.add u t.pred.(v);
    t.indeg.(v) <- t.indeg.(v) + 1
  end

let succs t u =
  check t u;
  Iset.elements t.succ.(u)

let preds t v =
  check t v;
  Iset.elements t.pred.(v)

(* Kahn's algorithm; shared by [topo_sort] and [has_cycle]. *)
let kahn t =
  let indeg = Array.copy t.indeg in
  let ready = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.push v ready) indeg;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty ready) do
    let v = Queue.pop ready in
    incr seen;
    order := v :: !order;
    Iset.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.push w ready)
      t.succ.(v)
  done;
  if !seen = t.n then Some (List.rev !order) else None

let topo_sort = kahn
let has_cycle t = kahn t = None

let reachable_from t u =
  check t u;
  let seen = Array.make t.n false in
  let rec dfs v =
    if not seen.(v) then begin
      seen.(v) <- true;
      Iset.iter dfs t.succ.(v)
    end
  in
  dfs u;
  seen

let ancestors t v =
  check t v;
  let seen = Array.make t.n false in
  let rec dfs u =
    if not seen.(u) then begin
      seen.(u) <- true;
      Iset.iter dfs t.pred.(u)
    end
  in
  Iset.iter dfs t.pred.(v);
  let acc = ref Iset.empty in
  Array.iteri (fun u s -> if s then acc := Iset.add u !acc) seen;
  !acc

let down_closure t set =
  let seen = Array.make t.n false in
  let rec dfs u =
    if not seen.(u) then begin
      seen.(u) <- true;
      Iset.iter dfs t.pred.(u)
    end
  in
  Iset.iter (fun v -> check t v; dfs v) set;
  let acc = ref Iset.empty in
  Array.iteri (fun u s -> if s then acc := Iset.add u !acc) seen;
  !acc

let is_down_closed t set =
  Iset.for_all (fun v -> Iset.subset t.pred.(v) set) set

let random_down_closed ?size t rng =
  let target =
    match size with
    | Some k -> min k t.n
    | None -> Random.State.int rng (t.n + 1)
  in
  let indeg = Array.copy t.indeg in
  let ready = Memsim.Vec.create () in
  Array.iteri (fun v d -> if d = 0 then Memsim.Vec.push ready v) indeg;
  let taken = ref Iset.empty in
  let count = ref 0 in
  while !count < target && not (Memsim.Vec.is_empty ready) do
    let i = Random.State.int rng (Memsim.Vec.length ready) in
    let v = Memsim.Vec.swap_remove ready i in
    taken := Iset.add v !taken;
    incr count;
    Iset.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Memsim.Vec.push ready w)
      t.succ.(v)
  done;
  !taken

(* Backtracking over the nodes from the highest id down, each tried
   "out" before "in", pushing every set found on the front of the
   result: the list holds the down-closed sets in descending order of
   their bitmask (bit [v] for node [v]), the order of a scan over all
   2^n masks.  A node may join only if no decided ancestor is out, and
   stay out only if no decided descendant is in.  Checking against the
   transitive closure rather than direct edges means every consistent
   partial choice extends to a down-closed set (the down-closure of the
   nodes chosen "in"), so no branch dead-ends: the walk costs
   O(n log n) per set, whatever the id order. *)
let all_down_closed t =
  if t.n > 24 then invalid_arg "Dag.all_down_closed: too many nodes";
  let mask_of mem =
    let m = ref 0 in
    for u = 0 to t.n - 1 do
      if mem u then m := !m lor (1 lsl u)
    done;
    !m
  in
  let anc =
    Array.init t.n (fun v ->
        let a = ancestors t v in
        mask_of (fun u -> Iset.mem u a))
  in
  let desc =
    Array.init t.n (fun v -> mask_of (Array.get (reachable_from t v)))
  in
  let result = ref [] in
  let rec decide v ~ins ~outs set =
    if v < 0 then result := set :: !result
    else begin
      let bit = 1 lsl v in
      if desc.(v) land ins = 0 then
        decide (v - 1) ~ins ~outs:(outs lor bit) set;
      if anc.(v) land outs = 0 then
        decide (v - 1) ~ins:(ins lor bit) ~outs (Iset.add v set)
    end
  in
  decide (t.n - 1) ~ins:0 ~outs:0 Iset.empty;
  !result
