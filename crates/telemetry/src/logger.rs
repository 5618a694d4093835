//! Leveled logging for the CLI.
//!
//! Logs are human-facing wall-clock-side output and go to stderr; they
//! are never part of a run artifact (artifacts must stay a pure
//! function of the job spec), so the logger holds no recorder.

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    Error,
    Warn,
    Info,
    Debug,
}

impl LogLevel {
    pub(crate) fn label(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }
}

/// A leveled stderr logger. `--quiet` maps to `Error`, the default to
/// `Info`, `-v` to `Debug`.
#[derive(Clone, Copy, Debug)]
pub struct Logger {
    level: LogLevel,
}

impl Logger {
    pub(crate) fn new(level: LogLevel) -> Self {
        Self { level }
    }

    /// Logger from CLI flags: `--quiet` wins over `-v`.
    pub fn from_flags(quiet: bool, verbose: bool) -> Self {
        let level = if quiet {
            LogLevel::Error
        } else if verbose {
            LogLevel::Debug
        } else {
            LogLevel::Info
        };
        Self::new(level)
    }

    pub(crate) fn enabled(&self, level: LogLevel) -> bool {
        level <= self.level
    }

    pub(crate) fn log(&self, level: LogLevel, msg: &str) {
        if self.enabled(level) {
            eprintln!("[{}] {msg}", level.label());
        }
    }

    pub fn error(&self, msg: &str) {
        self.log(LogLevel::Error, msg);
    }

    pub fn warn(&self, msg: &str) {
        self.log(LogLevel::Warn, msg);
    }

    pub fn info(&self, msg: &str) {
        self.log(LogLevel::Info, msg);
    }

    pub fn debug(&self, msg: &str) {
        self.log(LogLevel::Debug, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_matches_verbosity() {
        assert!(LogLevel::Error < LogLevel::Warn);
        assert!(LogLevel::Warn < LogLevel::Info);
        assert!(LogLevel::Info < LogLevel::Debug);
    }

    #[test]
    fn from_flags_maps_levels() {
        assert_eq!(Logger::from_flags(true, false).level, LogLevel::Error);
        assert_eq!(Logger::from_flags(false, true).level, LogLevel::Debug);
        assert_eq!(Logger::from_flags(false, false).level, LogLevel::Info);
        // --quiet wins over -v.
        assert_eq!(Logger::from_flags(true, true).level, LogLevel::Error);
    }

    #[test]
    fn quiet_logger_prints_errors_only() {
        let log = Logger::from_flags(true, false);
        assert!(log.enabled(LogLevel::Error));
        assert!(!log.enabled(LogLevel::Warn));
        assert!(!log.enabled(LogLevel::Info));
    }
}
