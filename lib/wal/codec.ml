(* Binary encoding primitives of the write-ahead log and checkpoints.

   Everything durable is built from five little-endian primitives —
   fixed u32, unsigned LEB128 varints, zigzag-folded signed varints,
   length-prefixed strings, float bits as int64 — plus a tagged encoding
   of {!Dc_relation.Value.t} and tuples, and one framing convention:

     frame := [u32 payload-length][u32 crc32(payload)][payload]

   The CRC is the reflected IEEE polynomial (0xEDB88320), table-driven,
   pure OCaml.  Readers are cursors over an immutable string; any
   malformed input raises {!Corrupt} — the WAL reader treats that as a
   torn tail, the checkpoint reader as fatal corruption. *)

open Dc_relation

exception Corrupt of string

let corrupt fmt = Fmt.kstr (fun s -> raise (Corrupt s)) fmt

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE, reflected) *)

(* Slicing by four: [t0] is the byte-at-a-time table, and [tk.(n)] is the
   CRC of byte [n] followed by [k] zero bytes, so one step folds four
   input bytes with four lookups.  The tail runs byte at a time. *)
let t0 =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let next t = Array.map (fun c -> (c lsr 8) lxor t0.(c land 0xFF)) t
let t1 = next t0
let t2 = next t1
let t3 = next t2

let crc32 ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Codec.crc32";
  let c = ref 0xFFFFFFFF and i = ref pos in
  let stop = pos + len in
  while !i + 4 <= stop do
    let x =
      !c lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF)
    in
    c :=
      Array.unsafe_get t3 (x land 0xFF)
      lxor Array.unsafe_get t2 ((x lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((x lsr 16) land 0xFF)
      lxor Array.unsafe_get t0 (x lsr 24);
    i := !i + 4
  done;
  for j = !i to stop - 1 do
    c :=
      Array.unsafe_get t0 ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Writers (append to a Buffer) *)

let u32 buf n =
  Buffer.add_char buf (Char.chr (n land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xFF))

(* unsigned LEB128 over the 63 bits of [n]: a negative [n] (a zigzag
   fold of an int beyond ±2^61) takes nine bytes *)
let rec varint buf n =
  if n land lnot 0x7F = 0 then Buffer.add_char buf (Char.chr n)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7F)));
    varint buf (n lsr 7)
  end

(* signed via zigzag fold: 0,-1,1,-2,... -> 0,1,2,3,... *)
let zigzag buf n = varint buf ((n lsl 1) lxor (n asr 62))

let string_ buf s =
  varint buf (String.length s);
  Buffer.add_string buf s

let value buf = function
  | Value.Int i ->
    Buffer.add_char buf '\000';
    zigzag buf i
  | Value.Str s ->
    Buffer.add_char buf '\001';
    string_ buf s
  | Value.Bool b ->
    Buffer.add_char buf '\002';
    Buffer.add_char buf (if b then '\001' else '\000')
  | Value.Float f ->
    Buffer.add_char buf '\003';
    Buffer.add_int64_le buf (Int64.bits_of_float f)

let tuple buf t =
  varint buf (Tuple.arity t);
  Tuple.iter (value buf) t

let tuples buf ts =
  varint buf (List.length ts);
  List.iter (tuple buf) ts

(* ------------------------------------------------------------------ *)
(* Readers (cursor over an immutable string) *)

type cursor = {
  data : string;
  mutable pos : int;
  limit : int;
}

let cursor ?(pos = 0) ?limit data =
  let limit = match limit with Some l -> l | None -> String.length data in
  { data; pos; limit }

let at_end c = c.pos >= c.limit

let byte c =
  if c.pos >= c.limit then corrupt "unexpected end of input";
  let b = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  b

let read_byte = byte

let read_u32 c =
  let b0 = byte c in
  let b1 = byte c in
  let b2 = byte c in
  let b3 = byte c in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

(* A top-level loop, not a local closure over [c]: wire frames read a
   varint per cell, and a closure would allocate per call. *)
let rec varint_from c shift acc =
  if shift > 62 then corrupt "varint overflow";
  let b = byte c in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b land 0x80 = 0 then acc else varint_from c (shift + 7) acc

let read_varint c = varint_from c 0 0

let read_zigzag c =
  let n = read_varint c in
  (n lsr 1) lxor (-(n land 1))

let read_string c =
  let len = read_varint c in
  if len < 0 || c.pos + len > c.limit then corrupt "string runs past input";
  let s = String.sub c.data c.pos len in
  c.pos <- c.pos + len;
  s

let read_value c =
  match byte c with
  | 0 -> Value.Int (read_zigzag c)
  | 1 -> Value.str (read_string c)
  | 2 -> Value.Bool (byte c <> 0)
  | 3 ->
    let lo = read_u32 c and hi = read_u32 c in
    Value.Float
      (Int64.float_of_bits
         (Int64.logor
            (Int64.of_int lo)
            (Int64.shift_left (Int64.of_int hi) 32)))
  | t -> corrupt "unknown value tag %d" t

let read_tuple c =
  let n = read_varint c in
  if n < 0 || n > 4096 then corrupt "implausible tuple arity %d" n;
  Tuple.of_list (List.init n (fun _ -> read_value c))

let read_tuples c =
  let n = read_varint c in
  if n < 0 then corrupt "negative tuple count";
  List.init n (fun _ -> read_tuple c)

(* ------------------------------------------------------------------ *)
(* Framing *)

let max_frame = 1 lsl 30 (* sanity bound on declared payload lengths *)

let add_frame buf payload =
  u32 buf (String.length payload);
  u32 buf (crc32 payload);
  Buffer.add_string buf payload

let frame_string payload =
  let buf = Buffer.create (String.length payload + 8) in
  add_frame buf payload;
  Buffer.contents buf

(* [read_frame data pos] decodes one frame starting at [pos], returning
   the payload and the offset just past it.  Short data, an implausible
   length, or a CRC mismatch all raise [Corrupt]. *)
let read_frame data pos =
  let n = String.length data in
  if pos + 8 > n then corrupt "truncated frame header";
  let c = cursor ~pos data in
  let len = read_u32 c in
  let crc = read_u32 c in
  if len < 0 || len > max_frame then corrupt "implausible frame length %d" len;
  if pos + 8 + len > n then corrupt "truncated frame payload";
  if crc32 ~pos:(pos + 8) ~len data <> crc then corrupt "frame crc mismatch";
  (String.sub data (pos + 8) len, pos + 8 + len)
