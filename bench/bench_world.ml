(* Shared seat plans and measurement helpers for the paper-reproduction
   benches.  Each bench builds a fresh simulation, runs a workload, and
   reports simulated time — absolute hardware truth comes from the cost
   model in Nectar_cab.Costs (see DESIGN.md section 5). *)

open Nectar_sim
open Nectar_core
open Nectar_proto
open Nectar_host
module World = Nectar_fleet.World

(* The paper's testbed: two CABs on one HUB. *)
let pair = [ (0, 0); (0, 1) ]

(* A host on the CAB's VME backplane.  Called from a node constructor,
   so each seat, host included, is built before the next one starts. *)
let attach_host rt =
  let host =
    Host.create (Runtime.engine rt)
      ~name:(Printf.sprintf "host%d" (Runtime.node_id rt))
  in
  (host, Cab_driver.attach host rt)

type host_node = { stack : Stack.t; host : Host.t; drv : Cab_driver.t }

let host_node stack rt =
  let stack = stack rt in
  let host, drv = attach_host rt in
  { stack; host; drv }

let spawn_cab_thread stack ~name body =
  ignore
    (Thread.create (Runtime.cab stack.Stack.rt) ~priority:Thread.System ~name
       body)

(* ---------- formatting ---------- *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row4 a b c d = Printf.printf "  %-26s %14s %14s %14s\n" a b c d

let fmt_us ns = Printf.sprintf "%.0f us" (Sim_time.to_us ns)
let fmt_mbps v = Printf.sprintf "%.1f" v

let mbps ~bytes ~ns = Stats.Throughput.mbit_per_s ~bytes_moved:bytes ~elapsed:ns
