//! What the process runs on and with: the environment fingerprint printed
//! with every result, the `HAM_*` hygiene check, and peak memory.

use std::process::Command;

/// Environment variables that silently change what `ServingModel::from_scorer`,
/// `RecServer::start` and `OnlineTrainer::bootstrap` build, or which kernel
/// tier runs. The benchmark refuses to measure with any of them set.
pub const FORBIDDEN_ENV: [&str; 5] =
    ["HAM_FAULTS", "HAM_RETRIEVAL", "HAM_IVF_NPROBE", "HAM_KERNEL_TIER", "HAM_TELEMETRY"];

/// The forbidden variables present among `names`.
pub fn forbidden_among<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<&'static str> {
    let present: Vec<&str> = names.into_iter().collect();
    FORBIDDEN_ENV.into_iter().filter(|name| present.contains(name)).collect()
}

/// The forbidden variables set in this process's environment.
pub fn forbidden_env_set() -> Vec<&'static str> {
    let names: Vec<String> = std::env::vars_os().filter_map(|(name, _)| name.into_string().ok()).collect();
    forbidden_among(names.iter().map(String::as_str))
}

/// Where and with what a result was measured, as a JSON object. Resolves the
/// kernel tier and the global pool as a side effect, which is wanted: neither
/// lazy initialisation should land inside a timed window.
pub fn fingerprint(seed: u64) -> String {
    format!(
        "{{\"nproc\": {}, \"kernel_tier\": \"{}\", \"pool_threads\": {}, \"rustc\": \"{}\", \"git_commit\": \"{}\", \"seed\": {seed}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        ham_tensor::kernels::active_tier().as_str(),
        ham_tensor::pool::global_pool().threads(),
        first_line_of(Command::new("rustc").arg("-V")),
        first_line_of(Command::new("git").args(["rev-parse", "HEAD"])),
    )
}

/// First stdout line of a finished command (without the characters JSON
/// would need escaped), or `unknown` (no such program, not a git checkout,
/// ...). `output` waits for the child to end.
fn first_line_of(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(|line| line.replace(['"', '\\'], "")))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`), or `None` where that file does not exist.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status.lines().find_map(|line| line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forbidden_variables_are_detected_by_name() {
        assert!(forbidden_among(["PATH", "HOME"]).is_empty());
        assert_eq!(forbidden_among(["PATH", "HAM_TELEMETRY", "HAM_FAULTS"]), vec!["HAM_FAULTS", "HAM_TELEMETRY"]);
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }
}
