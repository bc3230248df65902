//! The `scanshare` command-line binary. See `scanshare help`.

use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Piping into `head` closes stdout early; treat the resulting
    // broken-pipe panic as the conventional silent 141 exit instead of
    // a backtrace.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.to_string();
        if !msg.contains("Broken pipe") {
            default_hook(info);
        }
    }));
    let code = match std::panic::catch_unwind(|| scanshare_cli::dispatch(&args)) {
        Ok(code) => code,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if msg.contains("Broken pipe") {
                141
            } else {
                let _ = writeln!(std::io::stderr(), "internal error: {msg}");
                101
            }
        }
    };
    std::process::exit(code);
}
