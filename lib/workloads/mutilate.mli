(** The Mutilate load generator with the Facebook ETC workload
    (Atikoglu et al.), as used for the Memcached experiments (Figures 4
    and 5): zipfian key popularity, small keys, values of a few hundred
    bytes, and a high GET:SET ratio. *)

type op = Get of int | Set of int * int  (** Set (key, value_bytes) *)

type t

val create : ?nkeys:int -> ?get_ratio:float -> ?theta:float -> seed:int -> unit -> t
(** Defaults: 1M keys, 0.9 GET ratio (ETC's read-dominance), theta 0.99. *)

val next : t -> op
val mean_value_bytes : int
