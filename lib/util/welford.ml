type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable mn : float;
  mutable mx : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; mn = infinity; mx = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let d = x -. t.mean in
  t.mean <- t.mean +. (d /. float_of_int t.n);
  t.m2 <- t.m2 +. (d *. (x -. t.mean));
  if x < t.mn then t.mn <- x;
  if x > t.mx then t.mx <- x

let merge ~into src =
  if src.n = 0 then ()
  else if into.n = 0 then begin
    into.n <- src.n;
    into.mean <- src.mean;
    into.m2 <- src.m2;
    into.mn <- src.mn;
    into.mx <- src.mx
  end
  else begin
    let na = float_of_int into.n and nb = float_of_int src.n in
    let n = na +. nb in
    let d = src.mean -. into.mean in
    into.m2 <- into.m2 +. src.m2 +. (d *. d *. na *. nb /. n);
    into.mean <- into.mean +. (d *. nb /. n);
    into.n <- into.n + src.n;
    if src.mn < into.mn then into.mn <- src.mn;
    if src.mx > into.mx then into.mx <- src.mx
  end

let reset t =
  t.n <- 0;
  t.mean <- 0.;
  t.m2 <- 0.;
  t.mn <- infinity;
  t.mx <- neg_infinity

let count t = t.n
let mean t = t.mean

let stddev t =
  if t.n < 2 then 0. else sqrt (Float.max 0. (t.m2 /. float_of_int t.n))

let min t = t.mn
let max t = t.mx
