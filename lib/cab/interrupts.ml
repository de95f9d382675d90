open Nectar_sim

type t = {
  eng : Engine.t;
  cpu : Cpu.t;
  dispatch_ns : int;
  priority : int;
  serial : Resource.t; (* handlers run to completion, one at a time *)
  iname : string;
  count : Stats.Counter.t;
  coalesced_count : Stats.Counter.t;
  pending : (string, unit) Hashtbl.t; (* latched keys (see post_coalesced) *)
  irq_owner : Cpu.owner;
  mutable proc_names : (string * string) list;
      (* handler name -> [iname ^ ".irq." ^ name], built on first post *)
}

type ctx = t

let create eng cpu ?(dispatch_ns = Costs.irq_dispatch_ns)
    ?(priority = Costs.prio_interrupt) ~name () =
  {
    eng;
    cpu;
    dispatch_ns;
    priority;
    serial = Resource.create eng ~name:(name ^ ".irq-serial") ();
    iname = name;
    count = Stats.Counter.create ();
    coalesced_count = Stats.Counter.create ();
    pending = Hashtbl.create 8;
    (* The dispatch cost is charged explicitly, so the owner itself has no
       switch-in cost; transparency means returning from an interrupt does
       not re-charge the interrupted thread's context switch. *)
    irq_owner = Cpu.owner ~transparent:true cpu ~name:(name ^ ".irq") ~switch_in:0;
    proc_names = [];
  }

let work t span =
  Cpu.consume t.cpu t.irq_owner ~priority:t.priority ~atomic:true span

(* A CAB posts under a handful of handler names, nearly always the same
   literals, so a short list checked by identity first beats a string
   concatenation per interrupt. *)
let proc_name t name =
  let rec find = function
    | (n, pn) :: rest ->
        if n == name || String.equal n name then pn else find rest
    | [] ->
        let pn = t.iname ^ ".irq." ^ name in
        t.proc_names <- (name, pn) :: t.proc_names;
        pn
  in
  find t.proc_names

let handle t name fn =
  (* span covers dispatch + handler: interrupt entry to exit *)
  let tid = Trace.span_begin ~track:(Cpu.owner_name t.irq_owner) name in
  work t t.dispatch_ns;
  (if Vet_probe.installed () then begin
     Vet_probe.interrupt_enter t.eng ~name:(t.iname ^ "." ^ name);
     Fun.protect ~finally:(fun () -> Vet_probe.interrupt_exit t.eng) (fun () ->
         fn t)
   end
   else fn t);
  Trace.span_end tid

let post t ~name fn =
  Stats.Counter.incr t.count;
  Engine.spawn t.eng ~name:(proc_name t name) (fun () ->
      (* handlers run to completion, one at a time *)
      Resource.acquire t.serial;
      match handle t name fn with
      | () -> Resource.release t.serial
      | exception e ->
          Resource.release t.serial;
          raise e)

(* Level-triggered posting: a key already latched (posted, handler not yet
   entered) absorbs repeat posts — the hardware line stays asserted, the
   CPU takes one interrupt.  The collective completion path relies on this
   for its single end-of-operation host wakeup: however many signals race
   toward "operation complete", exactly one handler dispatch (and so one
   host notification) results per key. *)
let post_coalesced t ~key ~name fn =
  if Hashtbl.mem t.pending key then Stats.Counter.incr t.coalesced_count
  else begin
    Hashtbl.replace t.pending key ();
    post t ~name (fun ictx ->
        Hashtbl.remove t.pending key;
        fn ictx)
  end

let posted t = Stats.Counter.value t.count
let coalesced t = Stats.Counter.value t.coalesced_count
let ctx_engine (t : ctx) = t.eng
