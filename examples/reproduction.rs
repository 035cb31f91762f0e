//! Prints `docs/reproduction.md`: the paper's Fig. 5, Fig. 6, Table 1
//! and Table 2 as this repository reproduces them, from one pass over
//! the paper's programs. Rewrite the committed file with
//!
//! ```sh
//! cargo run --release --example reproduction > docs/reproduction.md
//! ```

fn main() {
    print!("{}", cabt::reproduction::Reproduction::run());
}
