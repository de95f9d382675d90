(** Imperative polymorphic binary min-heap, parameterised by a comparison
    function at creation time.  Used for the CPU ready queue (the simulator
    event queue has its own specialised heap inlined in
    [Nectar_sim.Engine]).

    Performance note: [cmp] is called O(log n) times per push/pop, through a
    closure.  Pass a monomorphic comparison ([Int.compare] on int fields,
    not the polymorphic [compare], which is a C call per invocation) — every
    current caller does. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> dummy:'a -> unit -> 'a t
(** [dummy] fills the array's unused slots, so an element is not kept
    reachable by the heap after it is popped.  It is never returned. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element, or [None] when empty. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : 'a t -> 'a
(** Like {!pop} without the option.
    @raise Invalid_argument when empty. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Iterate in unspecified order. *)
