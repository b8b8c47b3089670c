(* Order statistics for the benchmark's reported numbers. *)

exception Too_few of string

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Nearest-rank percentile.  A tail percentile is only as good as the
   samples beyond it, so one with fewer than [min_beyond] samples above
   its rank is refused rather than reported: p90 needs 100 samples. *)
let min_beyond = 10

let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then raise (Too_few "no samples");
  let rank =
    int_of_float (Float.ceil (p /. 100. *. float_of_int n)) |> max 1 |> min n
  in
  let beyond = n - rank in
  if p < 100. && beyond < min_beyond then
    raise
      (Too_few
         (Printf.sprintf "p%g of %d samples has %d beyond it (need %d)" p n
            beyond min_beyond));
  a.(rank - 1)

let sum xs = List.fold_left ( +. ) 0. xs

let failed_frac ~attempted ~failed =
  if attempted < 1 then invalid_arg "Stats.failed_frac: nothing attempted";
  if failed < 0 || failed > attempted then
    invalid_arg "Stats.failed_frac: failed outside [0, attempted]";
  float_of_int failed /. float_of_int attempted
