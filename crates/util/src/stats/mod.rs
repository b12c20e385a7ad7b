//! Statistics for the experiment harness: exact count sketches,
//! quantiles, and least-squares line fits.

mod counts;
mod quantile;
mod regression;

pub use counts::SparseCounts;
pub use quantile::{median, quantile, quantile_counts, Quantiles};
pub use regression::{fit_line, LineFit};
