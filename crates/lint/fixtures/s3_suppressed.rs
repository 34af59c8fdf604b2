// S3 suppressed: the uncovered hatch is sanctioned with a reasoned allow on
// its first library reference.

pub struct Cfg {
    // cmmf-lint: allow(S3) -- experimental hatch; equivalence test lands with the feature
    pub warm_start_hyperopt: bool,
}

pub fn pick(cfg: &Cfg) -> bool {
    cfg.warm_start_hyperopt
}
