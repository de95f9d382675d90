(* An intrusive FIFO: one block per wait, linked through [next].  [Nil] is
   a constant, not a heap block, so the list needs no sentinel record.  An
   entry stays queued after it dies — its timeout fired — until [signal]
   skips it; [live] counts the rest, so [waiters] is O(1). *)
type link =
  | Nil
  | Waiter of {
      mutable alive : bool;
      mutable wake : unit -> unit;
      mutable next : link;
    }

type t = {
  eng : Engine.t;
  mutable head : link;
  mutable tail : link;
  mutable live : int;
  mutable name : string;
}

let create eng ?(name = "waitq") () =
  { eng; head = Nil; tail = Nil; live = 0; name }

let enqueue t wake =
  let e = Waiter { alive = true; wake; next = Nil } in
  (match t.tail with Nil -> t.head <- e | Waiter last -> last.next <- e);
  t.tail <- e;
  t.live <- t.live + 1;
  e

(* Mark [e] woken or timed out; false if it already was. *)
let retire t = function
  | Waiter w when w.alive ->
      w.alive <- false;
      t.live <- t.live - 1;
      true
  | _ -> false

let wait t = Engine.suspend_unit (fun resume -> ignore (enqueue t resume))

let wait_releasing t ~release =
  Engine.suspend_unit (fun resume ->
      ignore (enqueue t resume);
      release ())

let wait_timeout_releasing t ~release span =
  Engine.suspend (fun resume ->
      let e = enqueue t ignore in
      let tm =
        Engine.after t.eng span (fun () -> if retire t e then resume `Timeout)
      in
      (match e with
      | Waiter w ->
          w.wake <-
            (fun () ->
              Engine.cancel tm;
              resume `Signaled)
      | Nil -> ());
      release ())

let wait_timeout t span = wait_timeout_releasing t ~release:(fun () -> ()) span

let rec signal t =
  match t.head with
  | Nil -> false
  | Waiter w as e ->
      t.head <- w.next;
      if t.head == Nil then t.tail <- Nil;
      if retire t e then begin
        w.wake ();
        true
      end
      else signal t

let broadcast t =
  let n = ref 0 in
  while signal t do
    incr n
  done;
  !n

let waiters t = t.live
