(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that
    simulations and tests are reproducible from a seed.  The generator is
    splitmix64, which is small, fast, and has well-understood statistical
    behaviour. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Two generators created with the
    same seed produce identical streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean; used for Poisson
    arrival processes. *)
