(* Slicing-by-8 over native ints: [tables.(k * 256 + b)] is the CRC of
   byte [b] followed by [k] zero bytes, so eight table lookups fold
   eight input bytes at once.  The running CRC lives in the low 32 bits
   of an unboxed int.  Built eagerly at module initialisation, so
   concurrent first use from several domains is safe. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for b = 0 to 255 do
    let c = ref b in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done;
    t.(b) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let p = t.(i - 256) in
    t.(i) <- (p lsr 8) lxor t.(p land 0xFF)
  done;
  t

let mask32 = 0xFFFF_FFFF

let[@inline] look i = Array.unsafe_get tables i
let[@inline] u32 s i = Int32.to_int (String.get_int32_le s i) land mask32

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update: range out of bounds";
  let stop = pos + len in
  let c = ref (Int32.to_int crc land mask32 lxor mask32) in
  let i = ref pos in
  while !i + 8 <= stop do
    let x = !c lxor u32 s !i and y = u32 s (!i + 4) in
    c :=
      look (1792 + (x land 0xFF))
      lxor look (1536 + ((x lsr 8) land 0xFF))
      lxor look (1280 + ((x lsr 16) land 0xFF))
      lxor look (1024 + (x lsr 24))
      lxor look (768 + (y land 0xFF))
      lxor look (512 + ((y lsr 8) land 0xFF))
      lxor look (256 + ((y lsr 16) land 0xFF))
      lxor look (y lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    c := look ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor mask32)

let of_string s = update 0l s ~pos:0 ~len:(String.length s)
