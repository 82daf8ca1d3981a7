// The benchmark is a module of its own so the driver can build it from
// the benchmark's directory; it imports the parent module's internal
// packages through the replace below (the import path nsdfgo/bench sits
// inside nsdfgo, which is what Go's internal rule checks).
module nsdfgo/bench

go 1.22

require nsdfgo v0.0.0

replace nsdfgo => ../
