//! One module per paper table/figure. See `DESIGN.md` §4 for the index.

pub mod churn;
pub mod failover;
pub mod fig02;
pub mod fig03;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod overload;
pub mod partition;
pub mod scaling;
pub mod table2;
pub mod table5;
pub mod tail_anatomy;
