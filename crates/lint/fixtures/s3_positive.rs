// S3 positive: an escape hatch read by library code with no test anywhere
// that references it.

pub struct Cfg {
    pub async_slots: usize,
}

pub fn pick(cfg: &Cfg) -> usize {
    cfg.async_slots
}
