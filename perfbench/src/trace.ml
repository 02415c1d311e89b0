type span = {
  id : int;
  name : string;
  parent : int;
  pass : int;
  start : float;
  stop : float;
}

type count = { c_pass : int; c_span : int; c_name : string; c_value : float }

type state = {
  mutable on : bool;
  mutable pass : int;
  mutable stack : int list;
  mutable next : int;
  mutable closed : span list;  (** newest first *)
  mutable counted : count list;  (** newest first *)
}

let st = { on = false; pass = 0; stack = []; next = 0; closed = []; counted = [] }
let set_enabled b = st.on <- b
let set_pass p = st.pass <- p
let current () = match st.stack with p :: _ -> p | [] -> -1

let span name f =
  if not st.on then f ()
  else begin
    let id = st.next in
    st.next <- id + 1;
    let parent = current () in
    let pass = st.pass in
    st.stack <- id :: st.stack;
    let start = Unix.gettimeofday () in
    let close () =
      let stop = Unix.gettimeofday () in
      st.stack <- List.tl st.stack;
      st.closed <- { id; name; parent; pass; start; stop } :: st.closed
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let count name value =
  if st.on then
    st.counted <-
      { c_pass = st.pass; c_span = current (); c_name = name; c_value = value }
      :: st.counted

let spans () = List.sort (fun a b -> compare a.id b.id) st.closed
let counts () = List.rev st.counted

let reset () =
  st.pass <- 0;
  st.stack <- [];
  st.next <- 0;
  st.closed <- [];
  st.counted <- []

let duration s = s.stop -. s.start

let self_times spans =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let c = Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent) in
        Hashtbl.replace covered s.parent (c +. duration s))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let child = Option.value ~default:0.0 (Hashtbl.find_opt covered s.id) in
      let acc = Option.value ~default:0.0 (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (acc +. duration s -. child))
    spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq by_name))

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "# span\tid\tparent\tpass\tname\tstart\tstop\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "span\t%d\t%d\t%d\t%s\t%.9f\t%.9f\n" s.id s.parent
            s.pass s.name s.start s.stop)
        (spans ());
      output_string oc "# count\tpass\tspan\tname\tvalue\n";
      List.iter
        (fun c ->
          Printf.fprintf oc "count\t%d\t%d\t%s\t%.17g\n" c.c_pass c.c_span
            c.c_name c.c_value)
        (counts ()))
