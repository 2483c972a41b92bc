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
