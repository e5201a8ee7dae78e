let all_cuts g = Dag.all_down_closed (Persist_graph.to_dag g)

(* An id of [cut] outside the graph's [0 .. node_count-1], if any: its
   least id when negative, else its greatest when past the end. *)
let out_of_range g cut =
  match (Iset.min_elt_opt cut, Iset.max_elt_opt cut) with
  | Some lo, _ when lo < 0 -> Some lo
  | _, Some hi when hi >= Persist_graph.node_count g -> Some hi
  | _ -> None

(* Down-closure straight from each member's [deps] and [order] sets,
   against a mark array of the cut: O(node_count + edges into the cut),
   with no DAG built.  Every id of [cut] must be in range. *)
let closed g cut =
  let mark = Bytes.make (Persist_graph.node_count g) '\000' in
  Iset.iter (fun v -> Bytes.set mark v '\001') cut;
  let inside d = Bytes.get mark d <> '\000' in
  Iset.for_all
    (fun v ->
      let n = Persist_graph.get g v in
      Iset.for_all inside n.Persist_graph.deps
      && Iset.for_all inside n.Persist_graph.order)
    cut

let is_legal g cut = out_of_range g cut = None && closed g cut

let apply_write image (w : Persist_graph.write) =
  if w.addr + w.size <= Bytes.length image then
    match w.size with
    | 8 -> Bytes.set_int64_le image w.addr w.value
    | 4 -> Bytes.set_int32_le image w.addr (Int64.to_int32 w.value)
    | 2 -> Bytes.set_uint16_le image w.addr (Int64.to_int w.value land 0xffff)
    | 1 -> Bytes.set_uint8 image w.addr (Int64.to_int w.value land 0xff)
    | _ -> invalid_arg "Observer: bad write size"

let image_of_cut g cut ~capacity =
  (match out_of_range g cut with
  | Some v ->
    invalid_arg
      (Printf.sprintf
         "Observer.image_of_cut: node %d is not in the graph (%d nodes)" v
         (Persist_graph.node_count g))
  | None -> ());
  if not (closed g cut) then
    invalid_arg "Observer.image_of_cut: cut is not down-closed";
  let image = Bytes.make capacity '\000' in
  (* Node ids increase in SC store order, so applying the members in
     ascending id order gives last-writer-wins semantics consistent
     with strong persist atomicity. *)
  Iset.iter
    (fun v ->
      let n = Persist_graph.get g v in
      Memsim.Vec.iter (apply_write image) n.Persist_graph.writes)
    cut;
  image

let final_image g ~capacity =
  let image = Bytes.make capacity '\000' in
  Persist_graph.iter
    (fun n -> Memsim.Vec.iter (apply_write image) n.Persist_graph.writes)
    g;
  image
