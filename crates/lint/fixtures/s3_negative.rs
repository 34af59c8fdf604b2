// S3 negative: the hatch is covered by a test that names it.

pub struct Cfg {
    pub async_slots: usize,
}

pub fn pick(cfg: &Cfg) -> usize {
    cfg.async_slots
}

#[cfg(test)]
mod tests {
    use super::Cfg;

    #[test]
    fn async_slots_one_matches_sequential() {
        let one = Cfg { async_slots: 1 };
        let four = Cfg { async_slots: 4 };
        assert!(one.async_slots != four.async_slots);
    }
}
