(** Recovery decoder and invariant checker for the CAS-based sorted
    list set.

    Given a post-crash persistent image, walk the list from the head
    pointer and validate structure:

    - every link lands inside the node pool, on a node boundary;
    - every reachable node's key matches the key its pool slot was
      assigned ({!Cas_set.keys_for}) — a zero or partial key word is a
      torn node, published by a CAS whose destination flush never
      persisted;
    - keys strictly increase along the walk (sortedness, and the cycle
      guard).

    A decode alone cannot see a {e silently truncated} list — a torn
    next field reads as list-end and drops fully durable downstream
    inserts.  That is the durable-linearizability oracle's job
    ({!Check.Dlin.check_set} wired up in {!Check.Driver}). *)

type recovered = { keys : int list  (** reachable keys, in list order *) }

val recover :
  params:Cas_set.params ->
  layout:Cas_set.layout ->
  bytes ->
  (recovered, string) result

val image_capacity : Cas_set.layout -> int
