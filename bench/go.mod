module insitubits/bench

go 1.22

require insitubits v0.0.0

replace insitubits => ../
