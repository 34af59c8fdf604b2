// S3 positive: an escape hatch read by library code with no test anywhere
// that references it.

pub struct Cfg {
    pub warm_start_hyperopt: bool,
}

pub fn pick(cfg: &Cfg) -> bool {
    cfg.warm_start_hyperopt
}
