(* The text goes to a uniquely named temp file in the target directory
   (same filesystem, so the rename is atomic).  [close_out] runs on the
   success path so a failed flush raises instead of renaming a short
   file; on any failure the fd is released and the temp file removed. *)
let write_atomic path text =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  try
    let oc = open_out tmp in
    (try
       output_string oc text;
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e);
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
