(* Operation accounting behind [fail_share]: every operation a workload
   attempts ends in exactly one of these buckets. A refused request
   counts as failed, as does a result the benchmark's own check
   rejects. *)

type t = {
  mutable attempted : int;
  mutable ok : int;
  mutable failed : int;  (** gave up, crashed or was cancelled *)
  mutable refused : int;  (** rejected at admission *)
  mutable deadline : int;  (** missed its deadline *)
  mutable wrong : int;  (** completed, but the independent check failed *)
}

let create () =
  { attempted = 0; ok = 0; failed = 0; refused = 0; deadline = 0; wrong = 0 }

type outcome = Ok | Failed | Refused | Deadline | Wrong

let record t o =
  t.attempted <- t.attempted + 1;
  match o with
  | Ok -> t.ok <- t.ok + 1
  | Failed -> t.failed <- t.failed + 1
  | Refused -> t.refused <- t.refused + 1
  | Deadline -> t.deadline <- t.deadline + 1
  | Wrong -> t.wrong <- t.wrong + 1

let merge ts =
  let m = create () in
  List.iter
    (fun t ->
      m.attempted <- m.attempted + t.attempted;
      m.ok <- m.ok + t.ok;
      m.failed <- m.failed + t.failed;
      m.refused <- m.refused + t.refused;
      m.deadline <- m.deadline + t.deadline;
      m.wrong <- m.wrong + t.wrong)
    ts;
  m

let bad t = t.failed + t.refused + t.deadline + t.wrong

let fail_share t =
  if t.attempted = 0 then 0. else float_of_int (bad t) /. float_of_int t.attempted

(* Correctness of the whole run: something was attempted and nothing
   came back wrong. Refusals and give-ups are reported through
   [fail_share]; a wrong result additionally fails the run. *)
let correct t = t.attempted > 0 && t.wrong = 0
