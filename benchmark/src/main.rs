fn main() -> std::process::ExitCode {
    spate_benchmark::cli::main()
}
