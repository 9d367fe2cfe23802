module Expr = Smt.Expr
module Bv = Smt.Bv

(* Copy-on-write: [save] marks the array shared and returns it without
   copying, so snapshotting a memory is O(1); the first mutation after a
   share copies.  Cells are immutable terms, so sharing the array is the
   only aliasing concern. *)
type t = {
  mem_name : string;
  mutable data : Expr.t array;
  mutable shared : bool;
  read_check : (string * string) Lazy.t;
  write_check : (string * string) Lazy.t;
}

type state = Expr.t array

let byte_zero = lazy (Expr.int ~width:8 0)

(* The default site and the message of a bounds check on [what], kept
   per memory so that a checked access formats nothing.  Lazy, because
   memories are built inside timed loops (seven per PLIC) and many are
   only read, only written or never accessed through the checked API. *)
let check_text name size what =
  lazy
    ( Printf.sprintf "mem:%s:%s" name what,
      Printf.sprintf "%s access exceeds %s (%d bytes)" what name size )

let create ~name ~size =
  { mem_name = name;
    data = Array.make size (Lazy.force byte_zero);
    shared = false;
    read_check = check_text name size "read";
    write_check = check_text name size "write" }

let name t = t.mem_name
let size t = Array.length t.data
let read_byte t i = t.data.(i)

let unshare t =
  if t.shared then begin
    t.data <- Array.copy t.data;
    t.shared <- false
  end

let write_byte t i b =
  if Expr.width b <> 8 then invalid_arg "Mem.write_byte: byte expected";
  unshare t;
  t.data.(i) <- b

let save t =
  t.shared <- true;
  t.data

let load t data =
  if Array.length data <> Array.length t.data then
    invalid_arg "Mem.load: size mismatch";
  t.shared <- true;
  t.data <- data

let read32 t off =
  let b i = Expr.zext 32 (read_byte t (off + i)) in
  let w =
    Expr.bor (b 0)
      (Expr.bor
         (Expr.shl (b 1) (Expr.int ~width:32 8))
         (Expr.bor
            (Expr.shl (b 2) (Expr.int ~width:32 16))
            (Expr.shl (b 3) (Expr.int ~width:32 24))))
  in
  assert (Expr.width w = 32);
  w

let write32 t off v =
  if Expr.width v <> 32 then invalid_arg "Mem.write32: 32-bit value expected";
  for i = 0 to 3 do
    write_byte t (off + i) (Expr.extract ~hi:((8 * i) + 7) ~lo:(8 * i) v)
  done

let read64 t off =
  let rec assemble i acc =
    if i < 0 then acc
    else
      assemble (i - 1)
        (Expr.bor
           (Expr.shl (Expr.zext 64 (read_byte t (off + i)))
              (Expr.int ~width:64 (8 * i)))
           acc)
  in
  assemble 7 (Expr.int ~width:64 0)

let write64 t off v =
  if Expr.width v <> 64 then invalid_arg "Mem.write64: 64-bit value expected";
  for i = 0 to 7 do
    write_byte t (off + i) (Expr.extract ~hi:((8 * i) + 7) ~lo:(8 * i) v)
  done

let fill_zero t =
  unshare t;
  Array.fill t.data 0 (Array.length t.data) (Lazy.force byte_zero)

(* offset + len <= size, computed without 32-bit wrap by extending. *)
let in_bounds t ~offset ~len =
  let off64 = Expr.zext 64 offset and len64 = Expr.zext 64 len in
  Expr.ule (Expr.add off64 len64) (Expr.int ~width:64 (size t))

let bounds_check ?site t ~offset ~len text =
  let default_site, message = Lazy.force text in
  let site = Option.value site ~default:default_site in
  Engine.check_kind Error.Out_of_bounds ~site ~message (in_bounds t ~offset ~len)

let concretize_range ~offset ~len =
  let off = Bv.to_int (Engine.concretize offset) in
  let n = Bv.to_int (Engine.concretize len) in
  (off, n)

let read_bytes ?site t ~offset ~len =
  bounds_check ?site t ~offset ~len t.read_check;
  let off, n = concretize_range ~offset ~len in
  Array.init n (fun i -> read_byte t (off + i))

let write_bytes ?site t ~offset ~len data =
  bounds_check ?site t ~offset ~len t.write_check;
  let off, n = concretize_range ~offset ~len in
  if n > Array.length data then
    Engine.report_error Error.Out_of_bounds
      ~site:(Printf.sprintf "mem:%s:source" t.mem_name)
      ~message:"write source buffer shorter than length"
  else
    for i = 0 to n - 1 do
      write_byte t (off + i) data.(i)
    done
