(* What every bench module shares: section headings on stdout and a
   substring test for checking messages. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let contains hay sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = sub || go (i + 1)) in
  n = 0 || go 0
