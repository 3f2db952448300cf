//! Physical constants used by noise and device models.

/// Boltzmann constant in J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Nominal simulation temperature in kelvin (27 °C, the SPICE default).
pub const T_NOMINAL: f64 = 300.15;

/// `kT` at the nominal temperature, in joules.
pub const KT_NOMINAL: f64 = BOLTZMANN * T_NOMINAL;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kt_is_about_4e21() {
        assert!((KT_NOMINAL - 4.14e-21).abs() < 0.05e-21);
    }
}
