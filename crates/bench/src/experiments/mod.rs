//! One module per paper artifact; the module name is the section name
//! the `experiments` binary takes.
//!
//! Naming: `figN` regenerates Figure N, `table1` regenerates Table 1,
//! `pN` reproduces a quantitative prose claim (P1 = one-round updates,
//! P2 = write safety trade-off, P3 = replica level trade-off, P4 =
//! stability overhead, P5 = availability policies under partition, P6 =
//! migration, P7 = the §3.3 token optimizations, P8 = hot files).

pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod p1_rounds;
pub mod p2_safety;
pub mod p3_replicas;
pub mod p4_stability;
pub mod p5_partition;
pub mod p6_migration;
pub mod p7_token_opts;
pub mod p8_hot_files;
pub mod table1;
