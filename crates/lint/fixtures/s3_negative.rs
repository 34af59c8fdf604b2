// S3 negative: the hatch is covered by a test that names it.

pub struct Cfg {
    pub warm_start_hyperopt: bool,
}

pub fn pick(cfg: &Cfg) -> bool {
    cfg.warm_start_hyperopt
}

#[cfg(test)]
mod tests {
    use super::Cfg;

    #[test]
    fn warm_start_hyperopt_on_off_equivalence() {
        let on = Cfg { warm_start_hyperopt: true };
        let off = Cfg {
            warm_start_hyperopt: false,
        };
        assert!(on.warm_start_hyperopt != off.warm_start_hyperopt);
    }
}
