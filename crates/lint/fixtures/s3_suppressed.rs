// S3 suppressed: the uncovered hatch is sanctioned with a reasoned allow on
// its first library reference.

pub struct Cfg {
    // cmmf-lint: allow(S3) -- experimental hatch; equivalence test lands with the feature
    pub async_slots: usize,
}

pub fn pick(cfg: &Cfg) -> usize {
    cfg.async_slots
}
