(** Dense column-major matrices of [float].

    The storage convention is column-major ("Fortran order"), matching
    BLAS/LAPACK and MAGMA: element [(i, j)] of an [m × n] matrix lives
    at flat index [j * m + i]. All indices are 0-based.

    Every kernel in {!Blas2}, {!Blas3} and {!Lapack} operates on this
    type. Matrices own their storage — submatrix extraction copies.
    This keeps aliasing semantics trivial at the cost of copies, which
    is the right trade-off here because the fault-tolerance logic needs
    blocks it can verify and patch independently. *)

type t = private {
  data : float array;  (** flat column-major storage, length [rows*cols] *)
  rows : int;
  cols : int;
}

exception Dimension_mismatch of string
(** Raised by any operation whose operands have incompatible shapes.
    The payload names the operation and the offending dimensions. *)

val dim_error : string -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [dim_error op fmt ...] raises {!Dimension_mismatch} with a message
    prefixed by [op]. Shared by the BLAS modules. *)

(** {1 Construction} *)

val create : int -> int -> t
(** [create m n] is the [m × n] zero matrix.
    @raise Invalid_argument if [m < 0] or [n < 0]. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init m n f] has element [(i, j)] equal to [f i j]. *)

val identity : int -> t
val scalar : int -> float -> t
(** [scalar n a] is [a · I]. *)

val of_arrays : float array array -> t
(** [of_arrays rows] builds a matrix from an array of rows (row-major
    input for readability in tests). @raise Invalid_argument on ragged
    input or an empty outer array. *)

val to_arrays : t -> float array array
(** Inverse of {!of_arrays}: an array of rows. *)

val of_col_major : rows:int -> cols:int -> float array -> t
(** [of_col_major ~rows ~cols data] wraps an existing flat column-major
    array (copied). @raise Invalid_argument if the length is wrong. *)

val copy : t -> t

(** {1 Access} *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val unsafe_get : t -> int -> int -> float
(** No bounds check; for inner loops that have already validated
    shapes. *)

val unsafe_set : t -> int -> int -> float -> unit

val col : t -> int -> Vec.t
(** [col a j] is a fresh copy of column [j]. *)

val row : t -> int -> Vec.t
(** [row a i] is a fresh copy of row [i]. *)

val set_col : t -> int -> Vec.t -> unit
val set_row : t -> int -> Vec.t -> unit

(** {1 Submatrices and block moves} *)

val sub : t -> row:int -> col:int -> rows:int -> cols:int -> t
(** [sub a ~row ~col ~rows ~cols] is a fresh copy of the given window.
    @raise Invalid_argument if the window exceeds [a]'s bounds. *)

val blit : src:t -> dst:t -> row:int -> col:int -> unit
(** [blit ~src ~dst ~row ~col] copies all of [src] into [dst] with its
    top-left corner at [(row, col)]. *)

(** {1 Elementwise and structural operations} *)

val map : (float -> float) -> t -> t
val mapi : (int -> int -> float -> float) -> t -> t
val add : t -> t -> t
val sub_mat : t -> t -> t
val scale : float -> t -> t
val transpose : t -> t
val equal : t -> t -> bool

val symmetrize_from : Types.uplo -> t -> t
(** [symmetrize_from uplo a] is a fresh symmetric matrix built by
    mirroring the triangle [uplo] of [a] onto the other one. Used when a
    kernel (e.g. SYRK) has only touched one triangle. *)

val tril : ?diag:Types.diag -> t -> t
(** Lower-triangular part; [~diag:Unit_diag] forces ones on the
    diagonal. *)

val triu : ?diag:Types.diag -> t -> t

(** {1 Norms and comparison} *)

val norm_fro : t -> float
val norm_one : t -> float
(** Maximum absolute column sum. *)

val norm_inf : t -> float
(** Maximum absolute row sum. *)

val norm_max : t -> float
(** Largest absolute element. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Elementwise comparison within absolute tolerance [tol] (default
    [1e-9]); false on shape mismatch. *)

val rel_diff : t -> t -> float
(** [rel_diff a b] is ‖a−b‖_F / max(1, ‖b‖_F): a scale-aware distance
    used in tests of the factorization residual. *)

val sym_rel_diff : t -> t -> float
(** [sym_rel_diff s b] is ‖S − b‖_F / max(1, ‖b‖_F), where [S] is the
    symmetric matrix stored in the lower triangle of the square [s]
    (its strict upper triangle is never read). Every element of [b] is
    compared, both triangles. The sum runs in a fixed order, so equal
    inputs give bitwise-equal results.
    @raise Dimension_mismatch unless [s] and [b] are square and of the
    same order. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
