type t = { w : int; v : int64 }

let mask w =
  if w >= 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

let width t = t.w
let to_int64 t = t.v

let to_signed_int64 t =
  if t.w >= 64 then t.v
  else if Int64.logand t.v (Int64.shift_left 1L (t.w - 1)) <> 0L then
    Int64.logor t.v (Int64.lognot (mask t.w))
  else t.v

let to_int t =
  if t.v >= 0L && t.v <= Int64.of_int max_int then Int64.to_int t.v
  else invalid_arg "Bv.to_int: value does not fit in int"

let check_width w =
  if w < 1 || w > 64 then invalid_arg "Bv: width must be in 1..64"

let make ~width v =
  check_width width;
  { w = width; v = Int64.logand v (mask width) }

let of_int ~width v = make ~width (Int64.of_int v)
let of_bool b = { w = 1; v = (if b then 1L else 0L) }
let zero w = check_width w; { w; v = 0L }
let one w = make ~width:w 1L
let ones w = check_width w; { w; v = mask w }
let is_zero t = t.v = 0L
let is_ones t = t.v = mask t.w

let equal a b = a.w = b.w && a.v = b.v

let compare a b =
  let c = Int.compare a.w b.w in
  if c <> 0 then c else Int64.unsigned_compare a.v b.v

let same_width a b op =
  if a.w <> b.w then
    invalid_arg (Printf.sprintf "Bv.%s: width mismatch (%d vs %d)" op a.w b.w)

let add a b = same_width a b "add"; make ~width:a.w (Int64.add a.v b.v)
let sub a b = same_width a b "sub"; make ~width:a.w (Int64.sub a.v b.v)
let mul a b = same_width a b "mul"; make ~width:a.w (Int64.mul a.v b.v)
let neg a = make ~width:a.w (Int64.neg a.v)

let udiv a b =
  same_width a b "udiv";
  if b.v = 0L then ones a.w
  else make ~width:a.w (Int64.unsigned_div a.v b.v)

let urem a b =
  same_width a b "urem";
  if b.v = 0L then a
  else make ~width:a.w (Int64.unsigned_rem a.v b.v)

(* SMT-LIB bvsdiv/bvsrem: truncating signed division; division by zero
   yields 1 or -1 for sdiv depending on the dividend sign, and the
   dividend for srem. *)
let sdiv a b =
  same_width a b "sdiv";
  let sa = to_signed_int64 a and sb = to_signed_int64 b in
  if sb = 0L then (if sa >= 0L then ones a.w else one a.w)
  else if sa = Int64.min_int && sb = -1L then make ~width:a.w Int64.min_int
  else make ~width:a.w (Int64.div sa sb)

let srem a b =
  same_width a b "srem";
  let sa = to_signed_int64 a and sb = to_signed_int64 b in
  if sb = 0L then a
  else if sa = Int64.min_int && sb = -1L then zero a.w
  else make ~width:a.w (Int64.rem sa sb)

let logand a b = same_width a b "logand"; { w = a.w; v = Int64.logand a.v b.v }
let logor a b = same_width a b "logor"; { w = a.w; v = Int64.logor a.v b.v }
let logxor a b = same_width a b "logxor"; { w = a.w; v = Int64.logxor a.v b.v }
let lognot a = make ~width:a.w (Int64.lognot a.v)

let shift_amount b =
  if Int64.unsigned_compare b.v 64L >= 0 then 64 else Int64.to_int b.v

let shl a b =
  same_width a b "shl";
  let n = shift_amount b in
  if n >= a.w then zero a.w else make ~width:a.w (Int64.shift_left a.v n)

let lshr a b =
  same_width a b "lshr";
  let n = shift_amount b in
  if n >= a.w then zero a.w
  else make ~width:a.w (Int64.shift_right_logical a.v n)

let ashr a b =
  same_width a b "ashr";
  let n = shift_amount b in
  let s = to_signed_int64 a in
  if n >= a.w then (if s < 0L then ones a.w else zero a.w)
  else make ~width:a.w (Int64.shift_right s n)

let ult a b = same_width a b "ult"; Int64.unsigned_compare a.v b.v < 0
let ule a b = same_width a b "ule"; Int64.unsigned_compare a.v b.v <= 0
let slt a b = same_width a b "slt"; to_signed_int64 a < to_signed_int64 b
let sle a b = same_width a b "sle"; to_signed_int64 a <= to_signed_int64 b

let extract ~hi ~lo t =
  if lo < 0 || hi < lo || hi >= t.w then invalid_arg "Bv.extract: bad range";
  make ~width:(hi - lo + 1) (Int64.shift_right_logical t.v lo)

let concat hi lo =
  let w = hi.w + lo.w in
  if w > 64 then invalid_arg "Bv.concat: combined width exceeds 64";
  { w; v = Int64.logor (Int64.shift_left hi.v lo.w) lo.v }

let zext extra t =
  if extra < 0 then invalid_arg "Bv.zext: negative extension";
  check_width (t.w + extra);
  { w = t.w + extra; v = t.v }

let sext extra t =
  if extra < 0 then invalid_arg "Bv.sext: negative extension";
  check_width (t.w + extra);
  make ~width:(t.w + extra) (to_signed_int64 t)

let bit t i =
  if i < 0 || i >= t.w then invalid_arg "Bv.bit: index out of range";
  Int64.logand (Int64.shift_right_logical t.v i) 1L = 1L

let pp ppf t = Format.fprintf ppf "0x%Lx:%d" t.v t.w
let to_string t = Format.asprintf "%a" pp t
