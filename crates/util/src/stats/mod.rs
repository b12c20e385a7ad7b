//! Statistics for the experiment harness: exact count sketches,
//! quantiles, streaming histograms, and least-squares line fits.

mod counts;
mod histogram;
mod quantile;
mod regression;

pub use counts::SparseCounts;
pub use histogram::StreamingHistogram;
pub use quantile::{median, quantile, quantile_counts, Quantiles};
pub use regression::{fit_line, LineFit};
