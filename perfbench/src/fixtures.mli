(** Pinned reference energies (E_ref) per workload and instance seed.

    The fixture is a tab-separated file of
    [workload  instance_seed  variant  e_ref  method] lines ([#] starts
    a comment); [method] records how the energy was obtained. *)

type entry = {
  workload : string;
  instance_seed : int;
  variant : string;
  e_ref : float;
  how : string;
}

val parse : string -> (entry list, string) result
(** Parses the fixture text. *)

val load : string -> (entry list, string) result
(** Reads and parses a fixture file. *)

val find :
  entry list -> workload:string -> instance_seed:int -> variant:string ->
  entry option
