(** Binary encoding primitives shared by the write-ahead log and
    checkpoints: little-endian u32, LEB128 varints (zigzag for signed),
    length-prefixed strings, tagged values and tuples, and the
    [\[u32 len\]\[u32 crc\]\[payload\]] framing convention with a
    table-driven CRC-32 (reflected IEEE polynomial). *)

open Dc_relation

exception Corrupt of string
(** Malformed input: the WAL reader treats it as a torn tail, the
    checkpoint reader as fatal corruption. *)

val crc32 : ?pos:int -> ?len:int -> string -> int

(** {1 Writers} *)

val u32 : Buffer.t -> int -> unit
val varint : Buffer.t -> int -> unit
(** Unsigned LEB128 of the argument's 63 bits. *)

val zigzag : Buffer.t -> int -> unit
val string_ : Buffer.t -> string -> unit
val value : Buffer.t -> Value.t -> unit
val tuple : Buffer.t -> Tuple.t -> unit
val tuples : Buffer.t -> Tuple.t list -> unit

(** {1 Readers} *)

type cursor = {
  data : string;
  mutable pos : int;
  limit : int;
}

val cursor : ?pos:int -> ?limit:int -> string -> cursor
val at_end : cursor -> bool
val read_byte : cursor -> int
val read_u32 : cursor -> int
val read_varint : cursor -> int
val read_zigzag : cursor -> int
val read_string : cursor -> string
val read_value : cursor -> Value.t
val read_tuple : cursor -> Tuple.t
val read_tuples : cursor -> Tuple.t list

(** {1 Framing} *)

val add_frame : Buffer.t -> string -> unit
val frame_string : string -> string

val read_frame : string -> int -> string * int
(** [read_frame data pos] decodes the frame at [pos]: its payload and the
    offset just past it.  @raise Corrupt on short data, an implausible
    declared length, or a CRC mismatch. *)
