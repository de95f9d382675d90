module Engine = Nectar_sim.Engine
module Mailbox = Nectar_core.Mailbox
module Buffer_heap = Nectar_core.Buffer_heap
module Metrics = Nectar_util.Metrics

type t = {
  mutable engines : Engine.t list;
  mutable mailboxes : Mailbox.t list;
  mutable heaps : Buffer_heap.t list;
  mutable nodes : int;
}

let create () = { engines = []; mailboxes = []; heaps = []; nodes = 0 }
let add_engine t e = t.engines <- e :: t.engines
let add_mailbox t m = t.mailboxes <- m :: t.mailboxes
let add_heap t h = t.heaps <- h :: t.heaps
let add_node t = t.nodes <- t.nodes + 1
let nodes t = t.nodes

type snapshot = {
  pending_events : int;
  queued_events : int;
  pool_free_events : int;
  mailbox_msgs : int;
  mailbox_bytes : int;
  heap_blocks : int;
  heap_bytes : int;
  heap_free_bytes : int;
}

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let capture t =
  {
    pending_events = sum Engine.pending_events t.engines;
    queued_events = sum Engine.queued_events t.engines;
    pool_free_events = sum Engine.event_pool_free t.engines;
    mailbox_msgs = sum Mailbox.queued_messages t.mailboxes;
    mailbox_bytes = sum Mailbox.bytes_in_use t.mailboxes;
    heap_blocks = sum Buffer_heap.live_blocks t.heaps;
    heap_bytes = sum Buffer_heap.allocated_bytes t.heaps;
    heap_free_bytes = sum Buffer_heap.free_bytes t.heaps;
  }

let register_metrics t m ~prefix =
  let gauge name f =
    Metrics.gauge m (prefix ^ name) (fun () -> float_of_int (f ()))
  in
  gauge "pending_events" (fun () -> sum Engine.pending_events t.engines);
  gauge "queued_events" (fun () -> sum Engine.queued_events t.engines);
  gauge "pool_free_events" (fun () -> sum Engine.event_pool_free t.engines);
  gauge "mailbox_msgs" (fun () -> sum Mailbox.queued_messages t.mailboxes);
  gauge "mailbox_bytes" (fun () -> sum Mailbox.bytes_in_use t.mailboxes);
  gauge "heap_blocks" (fun () -> sum Buffer_heap.live_blocks t.heaps);
  gauge "heap_bytes" (fun () -> sum Buffer_heap.allocated_bytes t.heaps);
  gauge "nodes" (fun () -> t.nodes)

let to_string ?nodes s =
  let base =
    Printf.sprintf
      "events=%d/%d (pool free %d) mbox=%d msgs/%d B heap=%d blks/%d B (%d \
       free)"
      s.pending_events s.queued_events s.pool_free_events s.mailbox_msgs
      s.mailbox_bytes s.heap_blocks s.heap_bytes s.heap_free_bytes
  in
  match nodes with
  | Some n when n > 0 ->
      Printf.sprintf "%s  [%d timers, %d mbox B per node]" base
        (s.pending_events / n) (s.mailbox_bytes / n)
  | _ -> base

(* The live-word delta across a full major collection brackets the
   world's retained size, excluding whatever was live before the build. *)
let build_bytes_per_node ~nodes f =
  if nodes <= 0 then invalid_arg "Footprint: nodes must be positive";
  (* compact (not just full_major) so heap chunks adopted from finished
     domains are swept before the baseline is read *)
  Gc.compact ();
  let before = (Gc.stat ()).live_words in
  let v = f () in
  Gc.full_major ();
  let after = (Gc.stat ()).live_words in
  let bytes = (after - before) * (Sys.word_size / 8) in
  (v, max 0 (bytes / nodes))
