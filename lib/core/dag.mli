(** Directed graphs over dense integer node ids, with the order-theory
    operations the persistency analyses need: cycle detection
    (Figure 1's unsatisfiable constraint sets), topological sorting,
    reachability, and sampling of down-closed sets (legal recovery
    states). *)

type t

val create : n:int -> t
(** [n] nodes, ids [0 .. n-1], no edges. *)

val node_count : t -> int
val add_edge : t -> int -> int -> unit
(** [add_edge g u v]: edge [u -> v] ("u before v").  Duplicates are
    permitted and dropped on insert, so each edge counts once towards
    the in-degrees kept for {!random_down_closed}. *)

val succs : t -> int -> int list
val preds : t -> int -> int list

val has_cycle : t -> bool

val topo_sort : t -> int list option
(** Some order listing each node after all its predecessors, or [None]
    when cyclic. *)

val reachable_from : t -> int -> bool array
(** [reachable_from g u].(v) iff there is a (possibly empty) path
    [u ->* v]. *)

val ancestors : t -> int -> Iset.t
(** Strict ancestors (excludes the node itself). *)

val down_closure : t -> Iset.t -> Iset.t
(** Smallest superset closed under predecessors. *)

val is_down_closed : t -> Iset.t -> bool

val random_down_closed : ?size:int -> t -> Random.State.t -> Iset.t
(** A random down-closed subset: a prefix (of random length, or [size]
    if given) of a random linear extension.  Every down-closed set has
    non-zero probability.  Costs a copy of the maintained in-degree
    array plus the edges out of the prefix. *)

val all_down_closed : t -> Iset.t list
(** Exhaustive enumeration, in descending order of the sets' bitmasks
    (bit [v] for node [v]; the full set first, the empty set last).
    Backtracking with pruning: O(n * (n + edges)) for the transitive
    closure, then O(n log n) per set returned, so the cost follows the
    number of down-closed sets, not 2{^n}.  Intended for graphs of at
    most ~20 nodes.
    @raise Invalid_argument above 24 nodes. *)
