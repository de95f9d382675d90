type 'a t = {
  cmp : 'a -> 'a -> int;
  dummy : 'a; (* fills vacated slots so popped elements can be collected *)
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp ~dummy () = { cmp; dummy; data = [||]; size = 0 }
let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = max 16 (cap * 2) in
    let nd = Array.make ncap t.dummy in
    Array.blit t.data 0 nd 0 t.size;
    t.data <- nd
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.cmp t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.size && t.cmp t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t x =
  grow t;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some t.data.(0)

let pop_exn t =
  if t.size = 0 then invalid_arg "Binary_heap.pop_exn";
  let top = t.data.(0) in
  let n = t.size - 1 in
  t.size <- n;
  t.data.(0) <- t.data.(n);
  t.data.(n) <- t.dummy;
  if n > 0 then sift_down t 0;
  top

let pop t = if t.size = 0 then None else Some (pop_exn t)

let iter f t =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done
