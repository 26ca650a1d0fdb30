type t = { data : float array; rows : int; cols : int }

exception Dimension_mismatch of string

let dim_error op fmt =
  Format.kasprintf (fun s -> raise (Dimension_mismatch (op ^ ": " ^ s))) fmt

let create m n =
  if m < 0 || n < 0 then invalid_arg "Mat.create: negative dimension";
  { data = Array.make (m * n) 0.; rows = m; cols = n }

let init m n f =
  let a = create m n in
  for j = 0 to n - 1 do
    for i = 0 to m - 1 do
      a.data.((j * m) + i) <- f i j
    done
  done;
  a

let identity n = init n n (fun i j -> if i = j then 1. else 0.)
let scalar n a = init n n (fun i j -> if i = j then a else 0.)

let of_arrays rows_arr =
  let m = Array.length rows_arr in
  if m = 0 then invalid_arg "Mat.of_arrays: empty";
  let n = Array.length rows_arr.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> n then invalid_arg "Mat.of_arrays: ragged input")
    rows_arr;
  init m n (fun i j -> rows_arr.(i).(j))

let to_arrays a =
  Array.init a.rows (fun i ->
      Array.init a.cols (fun j -> a.data.((j * a.rows) + i)))

let of_col_major ~rows ~cols data =
  if Array.length data <> rows * cols then
    invalid_arg "Mat.of_col_major: wrong length";
  { data = Array.copy data; rows; cols }

let copy a = { a with data = Array.copy a.data }
let rows a = a.rows
let cols a = a.cols

let get a i j =
  if i < 0 || i >= a.rows || j < 0 || j >= a.cols then
    invalid_arg
      (Printf.sprintf "Mat.get: index (%d,%d) out of %dx%d" i j a.rows a.cols);
  a.data.((j * a.rows) + i)

let set a i j v =
  if i < 0 || i >= a.rows || j < 0 || j >= a.cols then
    invalid_arg
      (Printf.sprintf "Mat.set: index (%d,%d) out of %dx%d" i j a.rows a.cols);
  a.data.((j * a.rows) + i) <- v

let unsafe_get a i j = Array.unsafe_get a.data ((j * a.rows) + i)
let unsafe_set a i j v = Array.unsafe_set a.data ((j * a.rows) + i) v

let col a j =
  if j < 0 || j >= a.cols then invalid_arg "Mat.col: out of bounds";
  Array.sub a.data (j * a.rows) a.rows

let row a i =
  if i < 0 || i >= a.rows then invalid_arg "Mat.row: out of bounds";
  Array.init a.cols (fun j -> a.data.((j * a.rows) + i))

let set_col a j v =
  if j < 0 || j >= a.cols then invalid_arg "Mat.set_col: out of bounds";
  if Array.length v <> a.rows then invalid_arg "Mat.set_col: length mismatch";
  Array.blit v 0 a.data (j * a.rows) a.rows

let set_row a i v =
  if i < 0 || i >= a.rows then invalid_arg "Mat.set_row: out of bounds";
  if Array.length v <> a.cols then invalid_arg "Mat.set_row: length mismatch";
  for j = 0 to a.cols - 1 do
    a.data.((j * a.rows) + i) <- v.(j)
  done

let sub a ~row ~col ~rows ~cols =
  if
    row < 0 || col < 0 || rows < 0 || cols < 0
    || row + rows > a.rows
    || col + cols > a.cols
  then
    invalid_arg
      (Printf.sprintf "Mat.sub: window (%d,%d)+%dx%d out of %dx%d" row col rows
         cols a.rows a.cols);
  let b = create rows cols in
  for j = 0 to cols - 1 do
    Array.blit a.data (((col + j) * a.rows) + row) b.data (j * rows) rows
  done;
  b

let blit ~src ~dst ~row ~col =
  if row < 0 || col < 0 || row + src.rows > dst.rows || col + src.cols > dst.cols
  then
    invalid_arg
      (Printf.sprintf "Mat.blit: window (%d,%d)+%dx%d out of %dx%d" row col
         src.rows src.cols dst.rows dst.cols);
  for j = 0 to src.cols - 1 do
    Array.blit src.data (j * src.rows) dst.data
      (((col + j) * dst.rows) + row)
      src.rows
  done

let map f a = { a with data = Array.map f a.data }
let mapi f a = init a.rows a.cols (fun i j -> f i j (unsafe_get a i j))

let check_same_shape op a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    dim_error op "%dx%d vs %dx%d" a.rows a.cols b.rows b.cols

let add a b =
  check_same_shape "Mat.add" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) +. b.data.(k)) }

let sub_mat a b =
  check_same_shape "Mat.sub_mat" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) -. b.data.(k)) }

let scale alpha a = map (fun v -> alpha *. v) a
let transpose a = init a.cols a.rows (fun i j -> unsafe_get a j i)

let equal a b =
  a.rows = b.rows && a.cols = b.cols && a.data = b.data

let symmetrize_from uplo a =
  if a.rows <> a.cols then dim_error "Mat.symmetrize_from" "%dx%d" a.rows a.cols;
  init a.rows a.cols (fun i j ->
      match uplo with
      | Types.Lower -> if i >= j then unsafe_get a i j else unsafe_get a j i
      | Types.Upper -> if i <= j then unsafe_get a i j else unsafe_get a j i)

let tril ?(diag = Types.Non_unit_diag) a =
  init a.rows a.cols (fun i j ->
      if i > j then unsafe_get a i j
      else if i = j then
        match diag with
        | Types.Unit_diag -> 1.
        | Types.Non_unit_diag -> unsafe_get a i j
      else 0.)

let triu ?(diag = Types.Non_unit_diag) a =
  init a.rows a.cols (fun i j ->
      if i < j then unsafe_get a i j
      else if i = j then
        match diag with
        | Types.Unit_diag -> 1.
        | Types.Non_unit_diag -> unsafe_get a i j
      else 0.)

let norm_fro a = Vec.nrm2 a.data

let norm_one a =
  let best = ref 0. in
  for j = 0 to a.cols - 1 do
    let s = ref 0. in
    for i = 0 to a.rows - 1 do
      s := !s +. abs_float (unsafe_get a i j)
    done;
    if !s > !best then best := !s
  done;
  !best

let norm_inf a =
  let best = ref 0. in
  for i = 0 to a.rows - 1 do
    let s = ref 0. in
    for j = 0 to a.cols - 1 do
      s := !s +. abs_float (unsafe_get a i j)
    done;
    if !s > !best then best := !s
  done;
  !best

let norm_max a =
  Array.fold_left (fun acc v -> Float.max acc (abs_float v)) 0. a.data

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && Vec.approx_equal ~tol a.data b.data

let rel_diff a b =
  check_same_shape "Mat.rel_diff" a b;
  norm_fro (sub_mat a b) /. Float.max 1. (norm_fro b)

(* One pass over the stored triangle: each stored off-diagonal value is
   compared with both of its mirror entries in [b], so both triangles of
   [b] count. Differences are scaled by 1/max(1, ‖b‖_F) before squaring,
   so the sum cannot overflow while the relative distance is finite. *)
let sym_rel_diff s b =
  let n = s.rows in
  if s.cols <> n || b.rows <> n || b.cols <> n then
    dim_error "Mat.sym_rel_diff" "s=%dx%d b=%dx%d" s.rows s.cols b.rows b.cols;
  let inv = 1. /. Float.max 1. (norm_fro b) in
  let acc = ref 0. in
  for j = 0 to n - 1 do
    let d = (unsafe_get s j j -. unsafe_get b j j) *. inv in
    acc := !acc +. (d *. d);
    for i = j + 1 to n - 1 do
      let v = unsafe_get s i j in
      let lo = (v -. unsafe_get b i j) *. inv
      and up = (v -. unsafe_get b j i) *. inv in
      acc := !acc +. (lo *. lo) +. (up *. up)
    done
  done;
  sqrt !acc

let pp fmt a =
  Format.fprintf fmt "@[<v>";
  for i = 0 to a.rows - 1 do
    Format.fprintf fmt "@[<h>";
    for j = 0 to a.cols - 1 do
      if j > 0 then Format.fprintf fmt " ";
      Format.fprintf fmt "%10.4g" (unsafe_get a i j)
    done;
    Format.fprintf fmt "@]";
    if i < a.rows - 1 then Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"

let to_string a = Format.asprintf "%a" pp a
