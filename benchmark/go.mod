module github.com/sleuth-rca/sleuth/benchmark

go 1.22

require github.com/sleuth-rca/sleuth v0.0.0

replace github.com/sleuth-rca/sleuth => ../
