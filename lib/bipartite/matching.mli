(** Maximum-cardinality bipartite matching (Hopcroft–Karp, O(E√V)).

    The left adjacency is built once per call as CSR int arrays, each row in
    increasing edge id, with an int-array BFS queue.  Every search visits
    edges in that order, so the matching is the one the earlier list-based
    adjacency found, edge id for edge id.

    Used by the MaxCard online heuristic and as the engine behind several
    validation oracles. *)

val max_cardinality : Bgraph.t -> int list
(** Edge ids of a maximum-cardinality matching. *)

val max_cardinality_size : Bgraph.t -> int
(** Just the size, without materializing the edge list. *)
