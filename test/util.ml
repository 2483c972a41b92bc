(* Shared helpers for the test suite. *)

let qsuite cases = List.map QCheck_alcotest.to_alcotest cases

let check_true name b = Alcotest.(check bool) name true b
let check_false name b = Alcotest.(check bool) name false b
let check_int name expected actual = Alcotest.(check int) name expected actual

(* Wrap a scheduler so every [attempt] outcome is appended to [trace]
   (newest first). The driver learns nothing else from a scheduler's
   decisions, so equal traces mean two schedulers are observationally
   identical to any driver. A record update, so every other field — the
   wake epoch the driver parks on included — is forwarded unchanged. *)
let traced trace (s : Sched.Scheduler.t) =
  {
    s with
    Sched.Scheduler.attempt =
      (fun id ->
        let r = s.Sched.Scheduler.attempt id in
        trace := (id, r) :: !trace;
        r);
  }

(* A deterministic RNG per test to keep failures reproducible. *)
let rng seed = Random.State.make [| 0xC0FFEE; seed |]

(* Generator for a format (m_1..m_n) with n in [1..max_n], m in [1..max_m]. *)
let format_gen ~max_n ~max_m =
  QCheck.Gen.(
    int_range 1 max_n >>= fun n ->
    array_size (return n) (int_range 1 max_m))

(* Generator for a syntax over [n_vars] variables. *)
let var_names = [| "x"; "y"; "z"; "u"; "v"; "w" |]

let syntax_gen ~max_n ~max_m ~n_vars =
  QCheck.Gen.(
    format_gen ~max_n ~max_m >>= fun fmt ->
    let tx m = array_size (return m) (map (fun i -> var_names.(i)) (int_range 0 (n_vars - 1))) in
    let rec build i acc =
      if i < 0 then return (Core.Syntax.make (Array.of_list acc))
      else tx fmt.(i) >>= fun t -> build (i - 1) (t :: acc)
    in
    build (Array.length fmt - 1) [])

(* Generator for a schedule of a given format, as an interleaving drawn
   uniformly. *)
let schedule_of_format_gen fmt =
  QCheck.Gen.(
    map
      (fun seed ->
        let st = Random.State.make [| seed |] in
        Core.Schedule.random st fmt)
      int)

(* A syntax together with one of its schedules. *)
let syntax_and_schedule_gen ~max_n ~max_m ~n_vars =
  QCheck.Gen.(
    syntax_gen ~max_n ~max_m ~n_vars >>= fun syntax ->
    schedule_of_format_gen (Core.Syntax.format syntax) >>= fun h ->
    return (syntax, h))

let arbitrary_syntax_and_schedule ~max_n ~max_m ~n_vars =
  QCheck.make
    ~print:(fun (s, h) ->
      Format.asprintf "%a / %a" Core.Syntax.pp s Core.Schedule.pp h)
    (syntax_and_schedule_gen ~max_n ~max_m ~n_vars)

(* ---------- seed-minimizing shrinker for the seeded sweeps ---------- *)

(* Binary-search the shortest failing prefix of an arrival stream:
   [fails] must hold on the full stream; the search maintains "prefix of
   length [hi] fails" as an invariant, so the returned prefix is
   guaranteed failing even when failure is not monotone in the prefix
   length (it is then a local, not global, minimum — good enough for a
   reproduction). O(log n) re-runs instead of O(n). *)
let minimal_failing_prefix ~fails arrivals =
  let n = Array.length arrivals in
  let lo = ref 1 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fails (Array.sub arrivals 0 mid) then hi := mid else lo := mid + 1
  done;
  Array.sub arrivals 0 !hi

let pp_arrivals arrivals =
  String.concat ""
    (Array.to_list (Array.map (fun tx -> string_of_int (tx + 1)) arrivals))

(* Sweep step with shrinking: when [fails] holds on [arrivals], shrink
   to a minimal failing prefix and fail the Alcotest case with a
   reproduction line ([repro] renders the prefix into a command or
   description the log reader can replay directly). *)
let check_sweep ~name ~repro ~fails arrivals =
  if fails arrivals then begin
    let small = minimal_failing_prefix ~fails arrivals in
    Alcotest.failf "%s: minimal failing prefix of %d/%d arrivals: %s\n  reproduce: %s"
      name (Array.length small) (Array.length arrivals) (pp_arrivals small)
      (repro small)
  end

(* ---------- seeded decision pins against a golden file ---------- *)

(* Seeded streams in the three traffic shapes of the benchmark, scaled
   down: [hot] (16x8 untyped, 80% of steps on v0), [tenants] (64x4 over
   1024 variables in 4 key ranges, 5% cross-range) and [ledger] (32x6
   typed accounts: 50% reads, 30% commuting bumps, 20% updates). *)
let pin_hot st = Sim.Workload.hotspot st ~n:16 ~m:8 ~n_vars:8 ~theta:0.8

let pin_tenants st =
  let pick range =
    Printf.sprintf "v%d" ((256 * range) + Random.State.int st 256)
  in
  Core.Syntax.make
    (Array.init 64 (fun _ ->
         let home = Random.State.int st 4 in
         let cross = Random.State.float st 1.0 < 0.05 in
         let at = Random.State.int st 4 in
         let away = (home + 1 + Random.State.int st 3) mod 4 in
         Array.init 4 (fun j -> pick (if cross && j = at then away else home))))

let pin_ledger st =
  let account () =
    if Random.State.float st 1.0 < 0.2 then "a0"
    else Printf.sprintf "a%d" (1 + Random.State.int st 63)
  in
  let op () =
    let r = Random.State.float st 1.0 in
    if r < 0.5 then Core.Op.Read
    else if r < 0.8 then if Random.State.bool st then Core.Op.Incr else Core.Op.Decr
    else Core.Op.Update
  in
  Core.Syntax.make_typed
    (Array.init 32 (fun _ ->
         Array.init 6 (fun _ ->
             let o = op () in
             (o, account ()))))

(* [pin_streams shapes f] calls [f shape seed syntax arrivals] on every
   seeded stream of every [(shape, generator, seeds)] entry. *)
let pin_streams shapes f =
  List.iter
    (fun (shape, gen, seeds) ->
      for seed = 1 to seeds do
        let st = Random.State.make [| 0x5EED; seed |] in
        let syntax = gen st in
        let arrivals = Combin.Interleave.random st (Core.Syntax.format syntax) in
        f shape seed syntax arrivals
      done)
    shapes

let md5_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))
let int_list a = Array.to_list (Array.map string_of_int a)

(* Compare [got] with the golden [file] next to the tests, naming the
   first diverging line rather than dumping both. *)
(* A file of test/ (or, with [~root:true], of the repository root):
   dune runtest runs inside test/, dune exec from the root. *)
let read_test_file ?(root = false) file =
  let here, there =
    if root then (Filename.concat ".." file, file)
    else (file, Filename.concat "test" file)
  in
  let ic = open_in_bin (if Sys.file_exists here then here else there) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let json_round_trips v = Obs.Json.parse (Obs.Json.to_string v) = Ok v

let check_golden file got =
  let want = read_test_file file in
  let rec first_diff i = function
    | w :: ws, g :: gs ->
      if w = g then first_diff (i + 1) (ws, gs) else Some (i, w, g)
    | [], [] -> None
    | w :: _, [] -> Some (i, w, "<missing>")
    | [], g :: _ -> Some (i, "<missing>", g)
  in
  match
    first_diff 1
      (String.split_on_char '\n' want, String.split_on_char '\n' got)
  with
  | None -> ()
  | Some (line, w, g) ->
    Alcotest.failf "%s line %d:\n  want %s\n  got  %s" file line w g
