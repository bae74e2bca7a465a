type history = {
  losses : float array;
  initial_loss : float;
  final_loss : float;
}

type optimizer = Sgd | Adam

exception Interrupted of string

let random_batch prng ~vocab ~batch ~seq =
  Array.init batch (fun _ -> Array.init seq (fun _ -> Prng.int prng ~bound:vocab))

let loss_and_grads m ~tokens ~targets =
  let cache = Model.forward m ~tokens in
  let loss, d_logits = Model.cross_entropy ~logits:cache.Model.logits ~targets in
  (loss, Model.backward m cache ~d_logits)

let step m ~tokens ~targets ~lr =
  let loss, grads = loss_and_grads m ~tokens ~targets in
  Model.sgd_step m grads ~lr;
  loss

(* --- crash-safe step checkpoints ------------------------------------ *)

(* /2: [wo]'s buffer is stored (i,w,h), so a /1 buffer would restore
   permuted. *)
let checkpoint_magic = "SUBSTATION-TRAIN-CKPT/2"

(* Everything one step boundary needs to resume bitwise: completed-step
   count, the losses so far, the PRNG counter (so the next batch draw is
   the one the uninterrupted run would have made), and plain-data copies
   of every parameter and Adam moment buffer. *)
type checkpoint_payload = {
  cp_step : int;
  cp_losses : float array;
  cp_prng : int64;
  cp_model : Model.snapshot;
  cp_adam : Model.adam_snapshot option;
}

(* Binds a checkpoint to the exact run shape: a file written by a
   different model geometry, optimizer, step count, or learning rate is
   rejected at load rather than silently resumed into the wrong run. *)
let fingerprint (m : Model.t) ~optimizer ~steps ~lr =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( m.Model.hp,
            m.Model.vocab,
            m.Model.n_layers,
            (match optimizer with Sgd -> "sgd" | Adam -> "adam"),
            steps,
            lr )
          []))

let train ?(optimizer = Sgd) ?checkpoint ?interrupt_after (m : Model.t) ~steps
    ~lr prng =
  let hp = m.Model.hp in
  let adam = lazy (Model.adam_init m) in
  let losses = Array.make steps 0.0 in
  let fp = lazy (fingerprint m ~optimizer ~steps ~lr) in
  let start =
    match checkpoint with
    | Some path when Sys.file_exists path ->
        let (cp : checkpoint_payload) =
          Substation.Checkpointing.load ~run:"training run" ~path
            ~magic:checkpoint_magic ~fingerprint:(Lazy.force fp)
            ~what:"Training.train" ()
        in
        Model.restore m cp.cp_model;
        (match cp.cp_adam with
        | Some a -> Model.adam_restore (Lazy.force adam) a
        | None -> ());
        Prng.set_state prng cp.cp_prng;
        Array.blit cp.cp_losses 0 losses 0 cp.cp_step;
        cp.cp_step
    | _ -> 0
  in
  let save completed =
    match checkpoint with
    | None -> ()
    | Some path ->
        let payload =
          {
            cp_step = completed;
            cp_losses = Array.sub losses 0 completed;
            cp_prng = Prng.state prng;
            cp_model = Model.snapshot m;
            cp_adam =
              (match optimizer with
              | Adam -> Some (Model.adam_snapshot (Lazy.force adam))
              | Sgd -> None);
          }
        in
        Substation.Checkpointing.save ~path ~magic:checkpoint_magic
          ~fingerprint:(Lazy.force fp) payload
  in
  (* Warm the compiled-plan cache: every step's layer forwards are then
     pure cache hits (zero pass re-runs). *)
  Model.precompile m ~batch:hp.Hparams.batch ~seq:hp.Hparams.seq;
  let done_this_run = ref 0 in
  for s = start to steps - 1 do
    let tokens =
      random_batch prng ~vocab:m.Model.vocab ~batch:hp.Hparams.batch
        ~seq:hp.Hparams.seq
    in
    losses.(s) <-
      (match optimizer with
      | Sgd -> step m ~tokens ~targets:tokens ~lr
      | Adam ->
          let loss, grads = loss_and_grads m ~tokens ~targets:tokens in
          Model.adam_step m (Lazy.force adam) grads ~lr;
          loss);
    save (s + 1);
    incr done_this_run;
    match interrupt_after with
    | Some n when !done_this_run >= n && s + 1 < steps ->
        (* Mirrors [Perfdb.Interrupted]: the simulated crash fires only
           after the step's checkpoint hit disk, so a resumed run replays
           from exactly here. *)
        raise (Interrupted (Option.value checkpoint ~default:""))
    | _ -> ()
  done;
  (match checkpoint with
  | Some path when Sys.file_exists path -> (
      try Sys.remove path with Sys_error _ -> ())
  | _ -> ());
  {
    losses;
    initial_loss = losses.(0);
    final_loss = losses.(steps - 1);
  }
