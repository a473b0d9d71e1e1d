(** One allocation reading for the tests and benches that pin what a
    call allocates.  Every allocation pin reads the GC through
    {!measure}; this interface is where the counters' behaviour is
    written down.

    How {!measure} reads a window around [f]:
    - it calls [Gc.minor ()], then reads [Gc.counters ()], then
      [Gc.minor_words ()], runs [f], then reads [Gc.minor_words ()],
      then [Gc.counters ()].  In this order the tuples the readings
      themselves allocate fall outside the window, and an empty thunk
      reads 0 on every counter;
    - [minor] comes from [Gc.minor_words], because the minor count of
      [Gc.counters] leaves out the live part of the minor heap;
    - the major count of [Gc.counters] sees a direct major allocation
      at once ([Gc.quick_stat] sees it only once a collection flushes
      it), and it includes the words promoted to the major heap.  A
      major cycle that ends inside the window empties the minor heap
      and promotes the young words that were live before [f] ran:
      those belong to the window, not to [f].  So [direct_major] is
      Δmajor − Δpromoted, and [promoted] is reported on its own.

    A caller that wants to count the words of [f] that survive the
    window ends its thunk with [Gc.minor ()]: they then show as
    [promoted].

    The counters are the calling domain's only.

    Never nest calls: an inner [Gc.minor ()] promotes the young words
    of the outer window, which the outer reading would then count. *)

type counts = {
  minor : float;  (** words allocated in the minor heap *)
  promoted : float;  (** words moved from the minor to the major heap *)
  direct_major : float;  (** words allocated straight in the major heap *)
}

val measure : (unit -> 'a) -> 'a * counts
(** [measure f] runs [f ()] once and returns its result with the words
    it allocated, read as above. *)
