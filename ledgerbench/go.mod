module ledgerdb/ledgerbench

go 1.24

require ledgerdb v0.0.0

replace ledgerdb => ../
