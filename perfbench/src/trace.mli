(** In-memory spans and counts recorded by the benchmark around its
    calls into each library layer.

    Spans are recorded only while {!set_enabled} is on; otherwise
    {!span} is exactly [f ()].  Every span carries its name, start, end,
    the id of the span open around it (its parent, [-1] at the root) and
    the pass it belongs to.  Counts are attached to the innermost open
    span.  Nothing is written until {!write}. *)

type span = {
  id : int;
  name : string;
  parent : int;
  pass : int;
  start : float;
  stop : float;
}

type count = { c_pass : int; c_span : int; c_name : string; c_value : float }

val set_enabled : bool -> unit

val set_pass : int -> unit
(** Pass id stamped on spans and counts recorded from now on. *)

val span : string -> (unit -> 'a) -> 'a
(** Times [f ()] as a span named after the layer it calls into.
    Exception-safe: the span is closed before the exception escapes. *)

val count : string -> float -> unit
(** Records a named count at the innermost open span. *)

val spans : unit -> span list
(** Closed spans, in the order they were opened. *)

val counts : unit -> count list
(** Recorded counts, oldest first. *)

val reset : unit -> unit

val self_times : span list -> (string * float) list
(** Self time per span name (a span's duration minus the part of it its
    child spans cover), summed over the given spans and sorted by name.
    Over all spans of one pass the self times add up to the root span's
    duration. *)

val write : string -> unit
(** Writes every span and count as tab-separated lines. *)
