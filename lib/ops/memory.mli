(** Activation-memory accounting over a program schedule.

    Training memory is dominated by activations saved for backpropagation;
    the paper's V100s have 16 GB, which bounds batch size and sequence
    length. This module computes container lifetimes over the scheduled
    operator list and the peak resident footprint, assuming a container is
    allocated at its first write (graph inputs live from the start) and
    freed after its last use (containers nothing ever reads — outputs and
    weight gradients — persist to the end).

    A useful corollary the paper does not spell out: fusion also shrinks
    activation memory, because interim containers of a fused kernel are
    never materialized. Comparing [profile] of the unfused and fused
    programs quantifies it. *)

type lifetime = {
  container : string;
  bytes : int;
  first_use : int;  (** op index where it becomes resident (0 for inputs) *)
  last_use : int;  (** op index after which it can be freed *)
  persistent : bool;
      (** survives to the end (input, output, gradient, or kept) *)
  input : bool;  (** read before any operator writes it: caller-owned *)
}

type profile = {
  lifetimes : lifetime list;  (** one per container that some operator touches *)
  resident : int array;  (** bytes resident while each operator runs *)
  peak_bytes : int;
  peak_at : int;  (** operator index achieving the peak *)
  total_bytes : int;  (** sum over all touched containers (no freeing) *)
}

val profile : ?bytes_per_elem:int -> ?keep:string list -> Program.t -> profile
(** [keep] names containers the caller wants back: they persist to the end
    like outputs nothing reads. *)

(** [fits profile ~capacity] checks the peak against a device capacity. *)
val fits : profile -> capacity:int -> bool

val pp : Format.formatter -> profile -> unit
