(** Stack-level worlds: CABs seated on HUB ports, HUBs joined by trunks,
    and a runtime plus a node (usually a full protocol stack) per CAB —
    the shape of every experiment in the paper and beyond it.

    {b Seat order is event order.}  Seats are built one at a time in list
    order, each running [Cab.create], [Runtime.create] and the node
    constructor to completion before the next seat starts.  Those calls
    spawn processes and take process ids, and the engine breaks
    same-time ties by scheduling sequence, so reordering seats (or
    building all CABs before all stacks) changes event order.  Network
    node ids equal seat indices; CAB [i] is named ["cab<i>"]. *)

type 'node t = {
  eng : Nectar_sim.Engine.t;
  net : Nectar_hub.Network.t;
  nodes : 'node array;  (** one per seat, in seat order *)
}

val build :
  ?msg_pool:bool ->
  ?trunks:Topology.trunk list ->
  seats:(int * int) list ->
  (Nectar_core.Runtime.t -> 'node) ->
  'node t
(** [build ~trunks ~seats node] creates an engine and a network with as
    many HUBs as the trunks and seats name, connects the [trunks]
    (default none) in list order, then seats one CAB per [(hub, port)]
    and applies [node] to its runtime.  [msg_pool] (default false) is
    passed to {!Nectar_core.Runtime.create}.
    @raise Invalid_argument if a seat names a trunk port or an occupied
    port, or a trunk port is used twice. *)

val stack : Nectar_core.Runtime.t -> Nectar_proto.Stack.t
(** The default node: a full protocol stack with a private router over
    the empty (shortest-path) policy. *)

val of_topology :
  ?data_bytes:int ->
  Topology.t ->
  (Nectar_route.Router.t -> Nectar_core.Runtime.t -> 'node) ->
  'node t
(** A world on a generated fabric: node [n] sits at
    [Topology.attachment topo n], and one router compiled from
    [Topology.policy topo] — created after the trunks, before the first
    seat — is handed to every node constructor to share.  [data_bytes]
    sizes each CAB's data memory (see {!Nectar_cab.Cab.create}); a
    thousand-board fleet at the 1 MB default would not fit in host
    RAM. *)
