(** One explored interleaving, as a replayable artifact.

    The DPOR explorer drives the machine through a [Guided] policy; the
    per-decision bag indices it records are exactly the forced choices a
    [Scripted] policy consumes, so any schedule the explorer reports —
    in particular a recovery counter-example — can be re-executed
    deterministically with {!to_script}, stored in a test corpus as its
    {!to_string} form, and parsed back with {!of_string}. *)

type t = {
  tids : int array;
      (** chosen thread per scheduling decision, in execution order;
          [[||]] when the schedule was parsed from its string form
          (thread ids are derivable only by replaying) *)
  indices : int array;
      (** runnable-bag index per decision — the forced choices of a
          [Scripted] replay *)
}

val forced : t -> int list
(** The indices, as {!Memsim.Machine.script}'s [forced] list. *)

val to_script : t -> Memsim.Machine.script
(** A fresh script replaying this schedule. *)

val to_string : t -> string
(** Comma-separated indices, e.g. ["0,1,1,0"]; [""] for the empty
    schedule.  Round-trips through {!of_string}. *)

val parse : string -> (t, string) result
(** The inverse of {!to_string}: [Error] names the first part that is
    not a non-negative integer.  Blanks around each index are
    ignored. *)

val of_string : string -> t
(** {!parse}, for trusted input.
    @raise Invalid_argument where {!parse} returns [Error]. *)

val length : t -> int

val pp : Format.formatter -> t -> unit
(** [tid@index] per decision when thread ids are known, otherwise the
    {!to_string} form. *)
