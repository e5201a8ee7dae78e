(** The recovery observer (paper Section 4).

    Failure is modeled as an observer that atomically reads all of
    persistent memory.  The states it may observe are exactly the
    down-closed subsets ("cuts") of the persist dependence graph: a
    persist can be durable only if everything it is ordered after is
    durable, and persists within one atomic node are all-or-nothing.

    Applying a cut's writes in node-id order (consistent with SC store
    order, hence with strong persist atomicity) to an initially zeroed
    persistent image produces the post-crash memory a recovery
    procedure would see.  Checking a recovery procedure against sampled
    or enumerated crash states is [Recovery.check_cuts]; to draw cuts
    directly, build the {!Dag} once with {!Persist_graph.to_dag} and
    call {!Dag.random_down_closed}. *)

val all_cuts : Persist_graph.t -> Iset.t list
(** Exhaustive enumeration of legal crash states (small graphs only),
    in the order of {!Dag.all_down_closed}.  Costs one DAG build and
    its transitive closure, then O(node_count log node_count) per cut
    returned: a 20-node chain has 21 cuts and is cheap, and only the
    number of cuts grows exponentially, with the graph's width.
    @raise Invalid_argument above 24 nodes. *)

val is_legal : Persist_graph.t -> Iset.t -> bool
(** [is_legal g cut]: every id of [cut] is a node of [g], and [cut] is
    closed under both the [deps] and the order-only edges of its
    members, i.e. a crash state the observer may see.  Costs
    O(node_count + edges into the cut); no DAG is built. *)

val image_of_cut : Persist_graph.t -> Iset.t -> capacity:int -> bytes
(** Persistent memory image after a crash in state [cut]: zeros
    overwritten by the writes of the cut's nodes in node-id order.
    Costs the {!is_legal} check plus the cut's writes and the
    [capacity]-byte image; nodes outside the cut are not visited.
    @raise Invalid_argument ["Observer.image_of_cut: node <id> is not
    in the graph ..."] if [cut] holds an id outside
    [0 .. node_count-1], and ["Observer.image_of_cut: cut is not
    down-closed"] if it is not a legal crash state. *)

val final_image : Persist_graph.t -> capacity:int -> bytes
(** Image when every persist completed. *)
