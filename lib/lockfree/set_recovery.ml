module C = Cas_set

type recovered = { keys : int list }

let read64 image addr =
  if addr < 0 || addr + 8 > Bytes.length image then None
  else Some (Int64.to_int (Bytes.get_int64_le image addr))

(* Walk the list image from the head pointer, validating structure as
   we go.  Strictly increasing keys double as the cycle guard: a
   pointer back into the walked region would have to repeat or
   decrease a key. *)
let recover ~params ~(layout : C.layout) image =
  let expected_keys = C.keys_for params in
  let bad fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let node_index addr =
    let off = addr - layout.nodes_addr in
    if off < 0 || off mod layout.node_bytes <> 0 then None
    else
      let i = off / layout.node_bytes in
      if i >= layout.total then None else Some i
  in
  let rec walk acc prev_key steps addr =
    if addr = 0 then Ok { keys = List.rev acc }
    else if steps > layout.total then
      bad "list walk exceeds %d pooled nodes (cycle)" layout.total
    else
      match node_index addr with
      | None -> bad "link points outside the node pool: %#x" addr
      | Some i -> (
        match (read64 image (addr + 8), read64 image addr) with
        | None, _ | _, None -> bad "node %d extends past the image" i
        | Some key, Some next ->
          if key <> expected_keys.(i) then
            bad "reachable node %d torn: key %d, expected %d" i key
              expected_keys.(i)
          else if key <= prev_key then
            bad "sort order violated at node %d: key %d after %d" i key
              prev_key
          else walk (key :: acc) key (steps + 1) next)
  in
  match read64 image layout.head_addr with
  | None -> bad "image does not cover the head pointer"
  | Some head -> walk [] 0 0 head

let image_capacity = C.image_capacity
