open Nectar_sim
open Nectar_core
module Net = Nectar_hub.Network
module Cab = Nectar_cab.Cab

type 'node t = { eng : Engine.t; net : Net.t; nodes : 'node array }

let hubs_named trunks seats =
  let top = List.fold_left (fun m (h, _) -> max m h) 0 seats in
  1 + List.fold_left (fun m ((a, _), (b, _)) -> max m (max a b)) top trunks

(* [router] runs between the trunks and the first seat, so a shared
   router exists before any node needs it. *)
let make ?(msg_pool = false) ?data_bytes ~trunks ~seats ~router node =
  let eng = Engine.create () in
  let net = Net.create eng ~hubs:(hubs_named trunks seats) () in
  List.iter (fun (a, b) -> Net.connect_hubs net a b) trunks;
  let r = router net in
  let nodes =
    Array.of_list
      (List.mapi
         (fun i (hub, port) ->
           let cab =
             Cab.create ?data_bytes net ~hub ~port
               ~name:(Printf.sprintf "cab%d" i)
           in
           node r (Runtime.create ~msg_pool cab))
         seats)
  in
  { eng; net; nodes }

let build ?msg_pool ?(trunks = []) ~seats node =
  make ?msg_pool ~trunks ~seats ~router:ignore (fun () -> node)

let stack rt = Nectar_proto.Stack.create rt ()

let of_topology ?data_bytes topo node =
  make ?data_bytes ~trunks:(Topology.trunks topo)
    ~seats:
      (List.init (Topology.node_count topo) (Topology.attachment topo))
    ~router:(fun net ->
      Nectar_route.Router.create ~policy:(Topology.policy topo) net)
    node
