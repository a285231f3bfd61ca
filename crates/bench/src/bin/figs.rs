//! Regenerate every figure table of the evaluation into
//! `results/<name>.tsv`, echoing each to stdout and each compile's pass
//! trace to stderr: `cargo run --release -p p4all-bench --bin figs`.
//! Takes no arguments; a table it cannot write is an error exit.

use p4all_bench::{ablation, fig11, fig12, fig13, fig4, Figure};

fn main() -> Result<(), String> {
    let figures: [fn() -> Figure; 5] = [fig4, fig11, fig12, fig13, ablation];
    for figure in figures {
        let fig = figure();
        let (path, tsv) = (fig.path(), fig.tsv());
        print!("# {}\n{tsv}", fig.name);
        std::fs::write(&path, tsv).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}
