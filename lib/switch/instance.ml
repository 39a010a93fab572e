type t = {
  m : int;
  m' : int;
  cap_in : int array;
  cap_out : int array;
  flows : Flow.t array;
}

let validate inst =
  if inst.m <= 0 || inst.m' <= 0 then invalid_arg "Instance: need at least one port per side";
  if Array.length inst.cap_in <> inst.m || Array.length inst.cap_out <> inst.m' then
    invalid_arg "Instance: capacity array lengths";
  Array.iter (fun c -> if c <= 0 then invalid_arg "Instance: capacities must be positive")
    inst.cap_in;
  Array.iter (fun c -> if c <= 0 then invalid_arg "Instance: capacities must be positive")
    inst.cap_out;
  Array.iteri
    (fun i (f : Flow.t) ->
      if f.Flow.id <> i then invalid_arg "Instance: flow ids must equal their index";
      if f.Flow.src < 0 || f.Flow.src >= inst.m then invalid_arg "Instance: src out of range";
      if f.Flow.dst < 0 || f.Flow.dst >= inst.m' then invalid_arg "Instance: dst out of range";
      if f.Flow.demand < 1 then invalid_arg "Instance: demand must be >= 1";
      if f.Flow.release < 0 then invalid_arg "Instance: release must be >= 0";
      if f.Flow.demand > min inst.cap_in.(f.Flow.src) inst.cap_out.(f.Flow.dst) then
        invalid_arg "Instance: demand exceeds kappa (min port capacity)")
    inst.flows

let create ?cap_in ?cap_out ~m ~m' flows =
  let cap_in = match cap_in with Some c -> Array.copy c | None -> Array.make m 1 in
  let cap_out = match cap_out with Some c -> Array.copy c | None -> Array.make m' 1 in
  let inst = { m; m'; cap_in; cap_out; flows = Array.copy flows } in
  validate inst;
  inst

let of_flows ?cap_in ?cap_out ~m ~m' specs =
  let flows =
    List.mapi
      (fun id (src, dst, demand, release) -> Flow.make ~id ~src ~dst ~demand ~release ())
      specs
  in
  create ?cap_in ?cap_out ~m ~m' (Array.of_list flows)

let n inst = Array.length inst.flows
let dmax inst = Array.fold_left (fun acc f -> max acc f.Flow.demand) 0 inst.flows
let kappa inst (f : Flow.t) = min inst.cap_in.(f.Flow.src) inst.cap_out.(f.Flow.dst)
let last_release inst = Array.fold_left (fun acc f -> max acc f.Flow.release) 0 inst.flows

let horizon inst = last_release inst + n inst + 1

let arrivals inst =
  let by_release = Hashtbl.create 64 in
  for i = Array.length inst.flows - 1 downto 0 do
    let f = inst.flows.(i) in
    let later = Option.value ~default:[] (Hashtbl.find_opt by_release f.Flow.release) in
    Hashtbl.replace by_release f.Flow.release (f :: later)
  done;
  fun round -> Option.value ~default:[] (Hashtbl.find_opt by_release round)

let total_demand inst = Array.fold_left (fun acc f -> acc + f.Flow.demand) 0 inst.flows

let scale_capacities inst ~mult ~add =
  {
    inst with
    cap_in = Array.map (fun c -> (mult * c) + add) inst.cap_in;
    cap_out = Array.map (fun c -> (mult * c) + add) inst.cap_out;
  }

let to_string inst =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "switch %d %d\n" inst.m inst.m');
  let caps label arr =
    Buffer.add_string buf label;
    Array.iter (fun c -> Buffer.add_string buf (" " ^ string_of_int c)) arr;
    Buffer.add_char buf '\n'
  in
  caps "cap_in" inst.cap_in;
  caps "cap_out" inst.cap_out;
  Array.iter
    (fun (f : Flow.t) ->
      Buffer.add_string buf
        (Printf.sprintf "flow %d %d %d %d\n" f.Flow.src f.Flow.dst f.Flow.demand
           f.Flow.release))
    inst.flows;
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s in
  let m = ref 0 and m' = ref 0 in
  let cap_in = ref None and cap_out = ref None in
  let flows = ref [] in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  List.iteri
    (fun lineno line ->
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let words =
        String.split_on_char ' ' line |> List.filter (fun w -> w <> "" && w <> "\t")
      in
      let ints ws =
        try Some (List.map int_of_string ws) with Failure _ -> None
      in
      match words with
      | [] -> ()
      | "switch" :: rest -> (
          match ints rest with
          | Some [ a; b ] ->
              m := a;
              m' := b
          | _ -> fail (Printf.sprintf "line %d: bad switch line" (lineno + 1)))
      | "cap_in" :: rest -> (
          match ints rest with
          | Some caps -> cap_in := Some (Array.of_list caps)
          | None -> fail (Printf.sprintf "line %d: bad cap_in line" (lineno + 1)))
      | "cap_out" :: rest -> (
          match ints rest with
          | Some caps -> cap_out := Some (Array.of_list caps)
          | None -> fail (Printf.sprintf "line %d: bad cap_out line" (lineno + 1)))
      | "flow" :: rest -> (
          match ints rest with
          | Some [ src; dst; demand; release ] -> flows := (src, dst, demand, release) :: !flows
          | _ -> fail (Printf.sprintf "line %d: bad flow line" (lineno + 1)))
      | w :: _ -> fail (Printf.sprintf "line %d: unknown directive %s" (lineno + 1) w))
    lines;
  match !error with
  | Some msg -> Error msg
  | None ->
      if !m = 0 then Error "missing switch line"
      else (
        try Ok (of_flows ?cap_in:!cap_in ?cap_out:!cap_out ~m:!m ~m':!m' (List.rev !flows))
        with Invalid_argument msg -> Error msg)

let pp fmt inst =
  Format.fprintf fmt "S(%d,%d) with %d flows, dmax=%d" inst.m inst.m' (n inst) (dmax inst)
