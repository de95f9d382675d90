open Nectar_sim

type t = {
  eng : Engine.t;
  bus_res : Resource.t;
  vname : string; (* trace track for bus crossings *)
  moved : Stats.Counter.t;
  mutable fault : (unit -> bool) option;
  mutable error_count : int;
}

let create eng ~name =
  {
    eng;
    bus_res = Resource.create eng ~name:(name ^ ".vme") ();
    vname = name ^ ".vme";
    moved = Stats.Counter.create ();
    fault = None;
    error_count = 0;
  }

let bus t = t.bus_res
let set_fault_hook t hook = t.fault <- hook

(* A transient bus error aborts the current transfer cycle; the master
   retries it transparently (the VMEbus BERR*-and-rerun discipline), so
   callers see only added latency — counted, never surfaced. *)
let bus_errored t =
  match t.fault with
  | Some f when f () ->
      t.error_count <- t.error_count + 1;
      true
  | _ -> false

let pio t ~cpu ~owner ~priority ~bytes =
  if bytes < 0 then invalid_arg "Vme.pio";
  let tid = Trace.span_begin ~track:t.vname "vme.pio" in
  let remaining = ref bytes in
  while !remaining > 0 do
    let n = min !remaining Costs.vme_pio_batch_bytes in
    let words = (n + 3) / 4 in
    (* [Resource.with_held] spelled out: no closure per batch *)
    Resource.acquire t.bus_res;
    (match
       Cpu.consume cpu owner ~priority ~atomic:true (words * Costs.vme_word_ns)
     with
    | () -> Resource.release t.bus_res
    | exception e ->
        Resource.release t.bus_res;
        raise e);
    (* a faulted batch burned its bus cycles but moved nothing: rerun it *)
    if not (bus_errored t) then remaining := !remaining - n
  done;
  Trace.span_end tid;
  Stats.Counter.add t.moved bytes

let pio_words t ~cpu ~owner ~priority ~words =
  pio t ~cpu ~owner ~priority ~bytes:(words * 4)

let dma t ~bytes =
  if bytes < 0 then invalid_arg "Vme.dma";
  let tid = Trace.span_begin ~track:t.vname "vme.dma" in
  let done_ = ref false in
  while not !done_ do
    Resource.with_held t.bus_res (fun () ->
        Engine.sleep t.eng (bytes * Costs.vme_dma_ns_per_byte));
    done_ := not (bus_errored t)
  done;
  Trace.span_end tid;
  Stats.Counter.add t.moved bytes

let bytes_moved t = Stats.Counter.value t.moved
let bus_errors t = t.error_count
