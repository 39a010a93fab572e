(** Scoped fork–join parallelism for use {e inside} a job.

    [map ~width n f] computes [f 0 .. f (n-1)] using the calling domain
    plus up to [width - 1] freshly spawned domains (index [i] runs on
    domain [i mod width]; the caller takes residue class 0) and returns the
    results in index order.  This is what the fork pool could never offer:
    a sweep cell, itself already running on an executor domain, can fan a
    hot inner loop (seeded serve replicas, BvN stripes) across cores and
    join before returning, with no serialization.

    Determinism and observability: every spawned domain's metric cells and
    trace spans are absorbed into the caller {e in chunk index order} when
    it joins, so counter totals equal the sequential run regardless of
    interleaving.  The caller's cooperative {!Deadline} is propagated into
    each spawned domain.  If any index raises, all domains are still
    joined (and their metrics absorbed), then the exception of the
    smallest raising index is re-raised.

    Keep [width] modest: domains are real OS threads with their own minor
    heaps, and nothing stops [executor jobs x width] from oversubscribing
    the machine — that is the caller's budget to spend. *)

val map : width:int -> int -> (int -> 'a) -> 'a array
(** [width <= 1] (or [n <= 1]) runs sequentially in the caller with no
    spawns at all — the zero-cost default path. *)
