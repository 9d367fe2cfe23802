(* Global coverage registries.  Recording is plain hashtable arithmetic
   (no floats, no clocks), so merged coverage is bit-for-bit identical
   across worker counts as long as the explored path set is. *)

(* Byte masks are bounded so a pathological register cannot blow up the
   frame protocol; registers past the cap are tracked whole-register
   only (reads/writes counts stay exact). *)
let mask_cap = 4096

type reg_cov = {
  rc_size : int;
  rc_declares : int;
  rc_reads : int;
  rc_writes : int;
  rc_read_bytes : int array;
  rc_write_bytes : int array;
}

type arm_cov = { ac_true : int; ac_false : int }

type t = {
  regs : ((string * string) * reg_cov) list;
  arms : (string * arm_cov) list;
}

let zero = { regs = []; arms = [] }

(* ---- mutable global state ---- *)

type reg_cell = {
  mutable c_size : int;
  mutable c_declares : int;
  mutable c_reads : int;
  mutable c_writes : int;
  mutable c_read_bytes : int array;
  mutable c_write_bytes : int array;
}

type arm_cell = { mutable a_true : int; mutable a_false : int }

let reg_tbl : (string * string, reg_cell) Hashtbl.t = Hashtbl.create 64
let arm_tbl : (string, arm_cell) Hashtbl.t = Hashtbl.create 64

let reset () =
  Hashtbl.reset reg_tbl;
  Hashtbl.reset arm_tbl

let grown a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make n 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let reg_cell ~peripheral ~register =
  let key = (peripheral, register) in
  match Hashtbl.find_opt reg_tbl key with
  | Some c -> c
  | None ->
    let c =
      { c_size = 0; c_declares = 0; c_reads = 0; c_writes = 0;
        c_read_bytes = [||]; c_write_bytes = [||] }
    in
    Hashtbl.add reg_tbl key c;
    c

let declare ~peripheral ~register ~size =
  let c = reg_cell ~peripheral ~register in
  c.c_declares <- c.c_declares + 1;
  if size > c.c_size then begin
    c.c_size <- size;
    let n = min size mask_cap in
    c.c_read_bytes <- grown c.c_read_bytes n;
    c.c_write_bytes <- grown c.c_write_bytes n
  end

(* Mark the [off, off+len) byte window of [mask]; [None] for either
   bound means the access was symbolic at recording time, which marks
   the whole register (the access could touch any byte). *)
let mark mask size off len =
  let n = Array.length mask in
  if n > 0 then begin
    let lo, hi =
      match off, len with
      | Some o, Some l when o >= 0 && l >= 0 -> (o, min (o + l) size)
      | _ -> (0, size)
    in
    for i = max 0 lo to min hi n - 1 do
      mask.(i) <- mask.(i) + 1
    done
  end

let ensure_size c size =
  match size with
  | Some size when size > c.c_size ->
    c.c_size <- size;
    let n = min size mask_cap in
    c.c_read_bytes <- grown c.c_read_bytes n;
    c.c_write_bytes <- grown c.c_write_bytes n
  | Some _ | None -> ()

let record_read ~peripheral ~register ?size ?off ?len () =
  let c = reg_cell ~peripheral ~register in
  ensure_size c size;
  c.c_reads <- c.c_reads + 1;
  mark c.c_read_bytes c.c_size off len

let record_write ~peripheral ~register ?size ?off ?len () =
  let c = reg_cell ~peripheral ~register in
  ensure_size c size;
  c.c_writes <- c.c_writes + 1;
  mark c.c_write_bytes c.c_size off len

let record_arm ~site dir =
  let c =
    match Hashtbl.find_opt arm_tbl site with
    | Some c -> c
    | None ->
      let c = { a_true = 0; a_false = 0 } in
      Hashtbl.add arm_tbl site c;
      c
  in
  if dir then c.a_true <- c.a_true + 1 else c.a_false <- c.a_false + 1

(* ---- snapshots (canonical: sorted assoc lists, copied arrays) ---- *)

let get () =
  let regs =
    Hashtbl.fold
      (fun key c acc ->
         ( key,
           { rc_size = c.c_size;
             rc_declares = c.c_declares;
             rc_reads = c.c_reads;
             rc_writes = c.c_writes;
             rc_read_bytes = Array.copy c.c_read_bytes;
             rc_write_bytes = Array.copy c.c_write_bytes } )
         :: acc)
      reg_tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let arms =
    Hashtbl.fold
      (fun site c acc ->
         (site, { ac_true = c.a_true; ac_false = c.a_false }) :: acc)
      arm_tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { regs; arms }

let restore t =
  reset ();
  List.iter
    (fun ((peripheral, register), rc) ->
       Hashtbl.replace reg_tbl (peripheral, register)
         { c_size = rc.rc_size;
           c_declares = rc.rc_declares;
           c_reads = rc.rc_reads;
           c_writes = rc.rc_writes;
           c_read_bytes = Array.copy rc.rc_read_bytes;
           c_write_bytes = Array.copy rc.rc_write_bytes })
    t.regs;
  List.iter
    (fun (site, ac) ->
       Hashtbl.replace arm_tbl site { a_true = ac.ac_true; a_false = ac.ac_false })
    t.arms

(* ---- delta arithmetic.  Counters are monotone, so [sub cur base]
   after [get]-ting a baseline yields the activity of one run; [add]
   merges per-worker deltas.  Both keep the canonical sorted order. ---- *)

let arr_op f a b =
  let n = max (Array.length a) (Array.length b) in
  Array.init n (fun i ->
      let x = if i < Array.length a then a.(i) else 0 in
      let y = if i < Array.length b then b.(i) else 0 in
      f x y)

let reg_nonzero rc =
  rc.rc_declares <> 0 || rc.rc_reads <> 0 || rc.rc_writes <> 0
  || Array.exists (fun n -> n <> 0) rc.rc_read_bytes
  || Array.exists (fun n -> n <> 0) rc.rc_write_bytes

let reg_op f a b =
  { rc_size = max a.rc_size b.rc_size;
    rc_declares = f a.rc_declares b.rc_declares;
    rc_reads = f a.rc_reads b.rc_reads;
    rc_writes = f a.rc_writes b.rc_writes;
    rc_read_bytes = arr_op f a.rc_read_bytes b.rc_read_bytes;
    rc_write_bytes = arr_op f a.rc_write_bytes b.rc_write_bytes }

(* Merge two sorted assoc lists; [both]/[left]/[right] return [None] to
   drop an entry from the result. *)
let merge2 cmp both left right a b =
  let rec go a b =
    match a, b with
    | [], [] -> []
    | (ka, va) :: ta, [] -> cons ka (left va) (go ta [])
    | [], (kb, vb) :: tb -> cons kb (right vb) (go [] tb)
    | (ka, va) :: ta, (kb, vb) :: tb ->
      let c = cmp ka kb in
      if c < 0 then cons ka (left va) (go ta b)
      else if c > 0 then cons kb (right vb) (go a tb)
      else cons ka (both va vb) (go ta tb)
  and cons k v tl = match v with None -> tl | Some v -> (k, v) :: tl in
  go a b

let reg_zero =
  { rc_size = 0; rc_declares = 0; rc_reads = 0; rc_writes = 0;
    rc_read_bytes = [||]; rc_write_bytes = [||] }

let sub a b =
  let regs =
    merge2 compare
      (fun x y ->
         let v = reg_op ( - ) x y in
         if reg_nonzero v then Some v else None)
      (fun x -> if reg_nonzero x then Some x else None)
      (fun y ->
        let v = reg_op ( - ) reg_zero y in
        if reg_nonzero v then Some { v with rc_size = y.rc_size } else None)
      a.regs b.regs
  in
  let arms =
    merge2 String.compare
      (fun x y ->
         let v = { ac_true = x.ac_true - y.ac_true;
                   ac_false = x.ac_false - y.ac_false } in
         if v.ac_true <> 0 || v.ac_false <> 0 then Some v else None)
      (fun x -> if x.ac_true <> 0 || x.ac_false <> 0 then Some x else None)
      (fun y ->
        let v = { ac_true = -y.ac_true; ac_false = -y.ac_false } in
        if v.ac_true <> 0 || v.ac_false <> 0 then Some v else None)
      a.arms b.arms
  in
  { regs; arms }

let add a b =
  let regs =
    merge2 compare
      (fun x y -> Some (reg_op ( + ) x y))
      (fun x -> Some x)
      (fun y -> Some y)
      a.regs b.regs
  in
  let arms =
    merge2 String.compare
      (fun x y ->
         Some { ac_true = x.ac_true + y.ac_true;
                ac_false = x.ac_false + y.ac_false })
      (fun x -> Some x)
      (fun y -> Some y)
      a.arms b.arms
  in
  { regs; arms }

(* ---- JSON (canonical: field order fixed, entries sorted) ---- *)

let mask_to_json m = Json.List (Array.to_list (Array.map (fun n -> Json.Int n) m))

let mask_of_json j =
  match Json.to_list_opt j with
  | None -> [||]
  | Some l ->
    Array.of_list
      (List.map (fun v -> Option.value ~default:0 (Json.to_int_opt v)) l)

let to_json t =
  Json.Obj
    [ ("registers",
       Json.List
         (List.map
            (fun ((peripheral, register), rc) ->
               Json.Obj
                 [ ("peripheral", Json.Str peripheral);
                   ("register", Json.Str register);
                   ("size", Json.Int rc.rc_size);
                   ("declares", Json.Int rc.rc_declares);
                   ("reads", Json.Int rc.rc_reads);
                   ("writes", Json.Int rc.rc_writes);
                   ("read_bytes", mask_to_json rc.rc_read_bytes);
                   ("write_bytes", mask_to_json rc.rc_write_bytes) ])
            t.regs));
      ("arms",
       Json.List
         (List.map
            (fun (site, ac) ->
               Json.Obj
                 [ ("site", Json.Str site);
                   ("true", Json.Int ac.ac_true);
                   ("false", Json.Int ac.ac_false) ])
            t.arms)) ]

let of_json j =
  let int k o = Option.value ~default:0 (Option.bind (Json.member k o) Json.to_int_opt) in
  let str k o = Option.value ~default:"" (Option.bind (Json.member k o) Json.to_string_opt) in
  let regs =
    match Option.bind (Json.member "registers" j) Json.to_list_opt with
    | None -> []
    | Some l ->
      List.map
        (fun o ->
           ( (str "peripheral" o, str "register" o),
             { rc_size = int "size" o;
               rc_declares = int "declares" o;
               rc_reads = int "reads" o;
               rc_writes = int "writes" o;
               rc_read_bytes =
                 (match Json.member "read_bytes" o with
                  | Some m -> mask_of_json m
                  | None -> [||]);
               rc_write_bytes =
                 (match Json.member "write_bytes" o with
                  | Some m -> mask_of_json m
                  | None -> [||]) } ))
        l
  in
  let arms =
    match Option.bind (Json.member "arms" j) Json.to_list_opt with
    | None -> []
    | Some l ->
      List.map
        (fun o ->
           (str "site" o, { ac_true = int "true" o; ac_false = int "false" o }))
        l
  in
  { regs = List.sort (fun (a, _) (b, _) -> compare a b) regs;
    arms = List.sort (fun (a, _) (b, _) -> String.compare a b) arms }

(* ---- derived summaries ---- *)

type peripheral_summary = {
  ps_peripheral : string;
  ps_registers : int;
  ps_read : int;
  ps_written : int;
  ps_touched : int;
  ps_bits : int;
  ps_bits_read : int;
  ps_bits_written : int;
  ps_bits_touched : int;
}

let covered m = Array.fold_left (fun acc n -> if n > 0 then acc + 1 else acc) 0 m

let peripherals t =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun ((peripheral, _), rc) ->
       let s =
         match Hashtbl.find_opt tbl peripheral with
         | Some s -> s
         | None ->
           let s =
             ref
               { ps_peripheral = peripheral; ps_registers = 0; ps_read = 0;
                 ps_written = 0; ps_touched = 0; ps_bits = 0; ps_bits_read = 0;
                 ps_bits_written = 0; ps_bits_touched = 0 }
           in
           Hashtbl.add tbl peripheral s;
           order := peripheral :: !order;
           s
       in
       let read = rc.rc_reads > 0 and written = rc.rc_writes > 0 in
       let br = covered rc.rc_read_bytes and bw = covered rc.rc_write_bytes in
       let either =
         covered (arr_op ( + ) rc.rc_read_bytes rc.rc_write_bytes)
       in
       s :=
         { !s with
           ps_registers = !s.ps_registers + 1;
           ps_read = (!s.ps_read + if read then 1 else 0);
           ps_written = (!s.ps_written + if written then 1 else 0);
           ps_touched = (!s.ps_touched + if read || written then 1 else 0);
           ps_bits = !s.ps_bits + (8 * rc.rc_size);
           ps_bits_read = !s.ps_bits_read + (8 * br);
           ps_bits_written = !s.ps_bits_written + (8 * bw);
           ps_bits_touched = !s.ps_bits_touched + (8 * either) })
    t.regs;
  List.rev_map (fun p -> !(Hashtbl.find tbl p)) !order
  |> List.sort (fun a b -> String.compare a.ps_peripheral b.ps_peripheral)

type branch_summary = {
  bs_group : string;
  bs_sites : int;
  bs_arms : int;
  bs_covered : int;
}

let site_group site =
  match String.index_opt site ':' with
  | Some i -> String.sub site 0 i
  | None -> site

let branches t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (site, ac) ->
       let g = site_group site in
       let sites, arms, cov =
         Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl g)
       in
       let cov' =
         cov + (if ac.ac_true > 0 then 1 else 0)
         + if ac.ac_false > 0 then 1 else 0
       in
       Hashtbl.replace tbl g (sites + 1, arms + 2, cov'))
    t.arms;
  Hashtbl.fold
    (fun g (sites, arms, cov) acc ->
       { bs_group = g; bs_sites = sites; bs_arms = arms; bs_covered = cov }
       :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.bs_group b.bs_group)

let pct n d = if d <= 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int d

(* Percentages are derived from integers, so they serialize identically
   for identical coverage maps. *)
let summary_to_json t =
  Json.Obj
    [ ("peripherals",
       Json.List
         (List.map
            (fun p ->
               Json.Obj
                 [ ("peripheral", Json.Str p.ps_peripheral);
                   ("registers", Json.Int p.ps_registers);
                   ("read", Json.Int p.ps_read);
                   ("written", Json.Int p.ps_written);
                   ("touched", Json.Int p.ps_touched);
                   ("register_pct", Json.Float (pct p.ps_touched p.ps_registers));
                   ("bits", Json.Int p.ps_bits);
                   ("bits_touched", Json.Int p.ps_bits_touched);
                   ("bit_pct", Json.Float (pct p.ps_bits_touched p.ps_bits)) ])
            (peripherals t)));
      ("branches",
       Json.List
         (List.map
            (fun b ->
               Json.Obj
                 [ ("group", Json.Str b.bs_group);
                   ("sites", Json.Int b.bs_sites);
                   ("arms", Json.Int b.bs_arms);
                   ("covered", Json.Int b.bs_covered);
                   ("arm_pct", Json.Float (pct b.bs_covered b.bs_arms)) ])
            (branches t))) ]

let pp ppf t =
  let lines =
    List.map
      (fun p ->
         Printf.sprintf "%-8s %d/%d registers (%.1f%%), %d/%d bits (%.1f%%)"
           p.ps_peripheral p.ps_touched p.ps_registers
           (pct p.ps_touched p.ps_registers)
           p.ps_bits_touched p.ps_bits
           (pct p.ps_bits_touched p.ps_bits))
      (peripherals t)
    @ List.map
        (fun b ->
           Printf.sprintf "%-8s %d/%d branch arms (%.1f%%)"
             b.bs_group b.bs_covered b.bs_arms (pct b.bs_covered b.bs_arms))
        (branches t)
  in
  List.iter (fun l -> Format.fprintf ppf "%s@." l) lines
